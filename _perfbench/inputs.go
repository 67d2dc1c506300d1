package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/trajectory"
)

// Input sizes. Every input is generated from the run's seed by gpsgen and
// this file; the server only ever sees the generated samples.
const (
	liveObjects = 64
	liveRate    = 10000 // APPEND/s, open loop
	bulkObjects = 256
	bulkBatch   = 64 // samples per MAPPEND
	// bulkNominalRate (samples/s) sizes a bulk-replicated run; see bulkRounds.
	bulkNominalRate = 120000
	parkedEvery     = 8    // one bulk object in parkedEvery is parked
	parkedJitter    = 5.0  // RMS radial GPS jitter of a parked object, metres
	bulkTripLen     = 2048 // samples in a moving object's generated trip
	queryObjects    = 64
	queryRate       = 1000  // APPEND/s beside the probes, open loop
	queryHistory    = 4096  // preloaded samples per object
	fleetSpread     = 20000 // depot area edge, metres
	probeWindow     = 120.0 // probe time window, seconds
	probeHalf       = 1000.0
	knnK            = 8
)

// reqKind tags a client request; probes carry the tier of their window.
type reqKind uint8

const (
	kAppend reqKind = iota
	kBatch
	kRangeHot
	kRangeCold
	kKnnHot
	kKnnCold
)

func (k reqKind) isRange() bool { return k == kRangeHot || k == kRangeCold }
func (k reqKind) isCold() bool  { return k == kRangeCold || k == kKnnCold }

// sampleRef is one sample of one object.
type sampleRef struct {
	obj int32
	s   trajectory.Sample
}

func objectIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return ids
}

// fleet returns n gpsgen trips sampled once per second.
func fleet(seed int64, n int, duration float64) []trajectory.Trajectory {
	g := gpsgen.New(seed, gpsgen.Config{SampleInterval: 1})
	return g.Fleet(n, fleetSpread, duration)
}

// interleave merges the samples of every trip from index from[i] on into
// one stream ordered by timestamp (ties by object), and keeps the first n.
func interleave(trips []trajectory.Trajectory, from []int, n int) ([]sampleRef, error) {
	var all []sampleRef
	for i, p := range trips {
		for _, s := range p[from[i]:] {
			all = append(all, sampleRef{obj: int32(i), s: s})
		}
	}
	if len(all) < n {
		return nil, fmt.Errorf("inputs: fleet has %d samples, need %d", len(all), n)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s.T != all[j].s.T {
			return all[i].s.T < all[j].s.T
		}
		return all[i].obj < all[j].obj
	})
	return all[:n], nil
}

// liveInputs is the live-ingest stream: a 64-object fleet interleaved by
// timestamp, one APPEND per sample.
type liveInputs struct {
	ids  []string
	reqs []sampleRef
}

func newLiveInputs(seed int64, seconds int) (*liveInputs, error) {
	n := liveRate * seconds
	// Departures are staggered by up to 300 s; the trips must outlast the
	// stagger plus each object's share of the stream.
	trips := fleet(seed, liveObjects, float64(n/liveObjects)+600)
	reqs, err := interleave(trips, make([]int, liveObjects), n)
	if err != nil {
		return nil, err
	}
	return &liveInputs{ids: objectIDs("car", liveObjects), reqs: reqs}, nil
}

func (in *liveInputs) encode(w io.Writer) {
	for _, r := range in.reqs {
		writeSample(w, in.ids[r.obj], r.s)
	}
}

// bulkInputs is the bulk-replicated fleet. Moving objects drive a gpsgen
// trip forth and back for as long as the run lasts; parked objects stand
// still with GPS jitter. Samples are computed on demand from (object,
// index), so the verification pass regenerates exactly what was sent.
type bulkInputs struct {
	seed    int64
	ids     []string
	parked  []bool
	trips   []trajectory.Trajectory // moving objects' position source
	centers []geo.Point             // parked objects' true position
	t0      []float64
}

func newBulkInputs(seed int64) *bulkInputs {
	in := &bulkInputs{
		seed:    seed,
		ids:     objectIDs("veh", bulkObjects),
		parked:  make([]bool, bulkObjects),
		trips:   make([]trajectory.Trajectory, bulkObjects),
		centers: make([]geo.Point, bulkObjects),
		t0:      make([]float64, bulkObjects),
	}
	moving := fleet(seed, bulkObjects-bulkObjects/parkedEvery, bulkTripLen)
	rng := rand.New(rand.NewSource(seed ^ 0x7061726b))
	m := 0
	for j := range in.ids {
		if j%parkedEvery == parkedEvery-1 {
			in.parked[j] = true
			in.centers[j] = geo.Pt((rng.Float64()-0.5)*fleetSpread, (rng.Float64()-0.5)*fleetSpread)
			in.t0[j] = math.Floor(rng.Float64() * 300)
			continue
		}
		in.trips[j] = moving[m]
		in.t0[j] = moving[m][0].T
		m++
	}
	return in
}

// sample returns object j's k-th sample; timestamps advance one second per
// sample.
func (in *bulkInputs) sample(j, k int) trajectory.Sample {
	t := in.t0[j] + float64(k)
	if in.parked[j] {
		dx, dy := jitter(in.seed, j, k)
		c := in.centers[j]
		return trajectory.S(t, c.X+dx, c.Y+dy)
	}
	p := in.trips[j]
	n := len(p)
	i := k % n
	if (k/n)%2 == 1 {
		i = n - 1 - i // drive back: positions stay continuous
	}
	return trajectory.S(t, p[i].X, p[i].Y)
}

// samples returns object j's first n samples.
func (in *bulkInputs) samples(j, n int) trajectory.Trajectory {
	out := make(trajectory.Trajectory, n)
	for k := range out {
		out[k] = in.sample(j, k)
	}
	return out
}

func (in *bulkInputs) encode(w io.Writer, perObject int) {
	for j, id := range in.ids {
		for k := 0; k < perObject; k++ {
			writeSample(w, id, in.sample(j, k))
		}
	}
}

// jitter is a Gaussian offset with RMS radius parkedJitter, a pure function
// of (seed, object, index).
func jitter(seed int64, j, k int) (dx, dy float64) {
	h := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(j)<<32 ^ uint64(k))
	u1 := (float64(h>>11) + 0.5) / (1 << 53)
	u2 := float64(splitmix(h)>>11) / (1 << 53)
	r := math.Sqrt(-2*math.Log(u1)) * parkedJitter / math.Sqrt2
	return r * math.Cos(2*math.Pi*u2), r * math.Sin(2*math.Pi*u2)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// queryInputs is the query-mix data: a preloaded history per object, the
// APPEND stream that continues it during the timed phase, and the time
// spans the probes draw their windows from.
type queryInputs struct {
	ids    []string
	trips  []trajectory.Trajectory
	stream []sampleRef // timed APPENDs, by timestamp
	// Probe windows lie in [tStart, tSeal) (cold, sealed during set-up) or
	// [tSeal, tHotEnd] (hot); every object has history over both.
	tStart, tSeal, tHotEnd float64
}

func newQueryInputs(seed int64, seconds int) (*queryInputs, error) {
	n := queryRate * seconds
	trips := fleet(seed, queryObjects, float64(queryHistory+n/queryObjects)+600)
	from := make([]int, queryObjects)
	in := &queryInputs{ids: objectIDs("bus", queryObjects), trips: trips, tHotEnd: math.Inf(1)}
	for i, p := range trips {
		if len(p) <= queryHistory {
			return nil, fmt.Errorf("inputs: trip %d has only %d samples", i, len(p))
		}
		from[i] = queryHistory
		in.tStart = max(in.tStart, p[0].T)
		in.tHotEnd = min(in.tHotEnd, p[queryHistory-1].T)
	}
	in.tSeal = math.Floor(in.tStart + (in.tHotEnd-in.tStart)/2)
	var err error
	if in.stream, err = interleave(trips, from, n); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *queryInputs) preload(obj int) trajectory.Trajectory { return in.trips[obj][:queryHistory] }

func (in *queryInputs) encode(w io.Writer) {
	for i, id := range in.ids {
		for _, s := range in.preload(i) {
			writeSample(w, id, s)
		}
	}
	for _, r := range in.stream {
		writeSample(w, in.ids[r.obj], r.s)
	}
	ps := newProbes(in, 1)
	for i := 0; i < 64; i++ {
		w.Write(ps.next().line(nil))
	}
}

// probe is one QUERYRANGE or NEAREST request.
type probe struct {
	kind   reqKind
	rect   geo.Rect
	t0, t1 float64 // QUERYRANGE window
	q      geo.Point
	t      float64 // NEAREST instant
}

// probes draws a seeded, endless probe sequence. Kinds cycle so the four
// (QUERYRANGE|NEAREST) × (hot|cold) classes are exactly balanced.
type probes struct {
	in  *queryInputs
	rng *rand.Rand
	i   int
}

func newProbes(in *queryInputs, seed int64) *probes {
	return &probes{in: in, rng: rand.New(rand.NewSource(seed ^ 0x70726f6265))}
}

func (ps *probes) next() probe {
	kinds := [...]reqKind{kRangeHot, kKnnHot, kRangeCold, kKnnCold}
	p := probe{kind: kinds[ps.i%len(kinds)]}
	ps.i++
	lo, hi := ps.in.tSeal, ps.in.tHotEnd
	if p.kind.isCold() {
		lo, hi = ps.in.tStart, ps.in.tSeal-1
	}
	// Probes centre on an object's position, so answers are not empty.
	trip := ps.in.trips[ps.rng.Intn(len(ps.in.ids))]
	if p.kind.isRange() {
		p.t0 = math.Floor(lo + ps.rng.Float64()*(hi-lo-probeWindow))
		p.t1 = p.t0 + probeWindow
		c, _ := trip.LocAt(p.t0 + probeWindow/2)
		p.rect = geo.Rect{Min: geo.Pt(c.X-probeHalf, c.Y-probeHalf), Max: geo.Pt(c.X+probeHalf, c.Y+probeHalf)}
		return p
	}
	p.t = math.Floor(lo + ps.rng.Float64()*(hi-lo))
	p.q, _ = trip.LocAt(p.t)
	return p
}

// line appends the probe's request line to buf.
func (p probe) line(buf []byte) []byte {
	if p.kind.isRange() {
		buf = append(buf, "QUERYRANGE"...)
		for _, v := range [...]float64{p.rect.Min.X, p.rect.Min.Y, p.rect.Max.X, p.rect.Max.Y, p.t0, p.t1} {
			buf = appendNum(append(buf, ' '), v)
		}
		return append(buf, '\n')
	}
	buf = append(buf, "NEAREST"...)
	for _, v := range [...]float64{p.q.X, p.q.Y, p.t} {
		buf = appendNum(append(buf, ' '), v)
	}
	return append(strconv.AppendInt(append(buf, ' '), knnK, 10), '\n')
}

// appendNum formats v with the fewest digits that parse back to v exactly,
// as the server's own %g replies do.
func appendNum(buf []byte, v float64) []byte { return strconv.AppendFloat(buf, v, 'g', -1, 64) }

func writeSample(w io.Writer, id string, s trajectory.Sample) {
	fmt.Fprintf(w, "%s %s %s %s\n", id, strconv.FormatFloat(s.T, 'g', -1, 64),
		strconv.FormatFloat(s.X, 'g', -1, 64), strconv.FormatFloat(s.Y, 'g', -1, 64))
}
