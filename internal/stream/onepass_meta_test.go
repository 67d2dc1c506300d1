package stream

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/gpsgen"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// Metamorphic cross-algorithm suite for the one-pass family (OPERB,
// CISED-S, CISED-W), run over seeded gpsgen fleets:
//
//	(a) the online stream output equals the batch output on identical
//	    input — including at epoch-scale timestamps (t0 ≈ 1.7e9), where
//	    naive accumulation schemes lose precision;
//	(b) the ε error bound is never exceeded, under each algorithm's own
//	    metric (perpendicular distance for OPERB, SED for CISED);
//	(c) the compression rate is monotone: raising ε never retains more
//	    points.

// onePassCase pairs the batch algorithm with its stream constructor.
type onePassCase struct {
	name   string
	batch  func(eps float64) compress.Algorithm
	stream func(eps float64) Compressor
	dist   func(s, a, b trajectory.Sample) float64 // the algorithm's error metric
}

func onePassCases() []onePassCase {
	return []onePassCase{
		{"OPERB", func(e float64) compress.Algorithm { return compress.OPERB{Threshold: e} }, NewOPERB, segDist},
		{"CISED-S", func(e float64) compress.Algorithm { return compress.CISEDS{Threshold: e} }, NewCISEDS, sed.Distance},
		{"CISED-W", func(e float64) compress.Algorithm { return compress.CISEDW{Threshold: e} }, NewCISEDW, sed.Distance},
	}
}

// onePassTol mirrors the compress package's test slack: the bound is
// re-measured in coordinate space while the engines decide in derived
// spaces, which costs a few rounding steps.
func onePassTol(eps float64) float64 { return eps*(1+1e-9) + 1e-3 }

// fleetTracks builds the seeded gpsgen workload shared by the suite, once
// at native timestamps and once shifted to an epoch-scale origin.
func fleetTracks() []trajectory.Trajectory {
	g := gpsgen.New(29, gpsgen.Config{})
	tracks := g.Fleet(4, 3000, 1500)
	for _, p := range g.Fleet(3, 8000, 900) {
		tracks = append(tracks, p.Shift(1.7e9, 0, 0))
	}
	return tracks
}

func TestOnePassStreamMatchesBatch(t *testing.T) {
	for _, c := range onePassCases() {
		for ti, p := range fleetTracks() {
			for _, eps := range []float64{5, 30, 120} {
				got, err := Collect(c.stream(eps), p)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				want := c.batch(eps).Compress(p)
				if !sameTrajectory(got, want) {
					t.Fatalf("%s: track %d ε=%v: stream %d points, batch %d points",
						c.name, ti, eps, got.Len(), want.Len())
				}
			}
		}
	}
}

func TestOnePassErrorBoundOnFleets(t *testing.T) {
	for _, c := range onePassCases() {
		for ti, p := range fleetTracks() {
			for _, eps := range []float64{5, 30, 120} {
				got, err := Collect(c.stream(eps), p)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: track %d: %v", c.name, ti, err)
				}
				checkBound(t, c.name, p, got, onePassTol(eps), c.dist)
			}
		}
	}
}

func TestOnePassCompressionMonotoneInEps(t *testing.T) {
	ladder := []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}
	for _, c := range onePassCases() {
		for ti, p := range fleetTracks() {
			prev := p.Len() + 1
			for _, eps := range ladder {
				got, err := Collect(c.stream(eps), p)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if got.Len() > prev {
					t.Fatalf("%s: track %d: ε=%v retained %d points, more than the tighter ε's %d",
						c.name, ti, eps, got.Len(), prev)
				}
				prev = got.Len()
			}
		}
	}
}

// The one-pass compressors reject out-of-order input and recover cleanly
// after Flush, like every other Compressor in the package.
func TestOnePassStreamContract(t *testing.T) {
	for _, c := range onePassCases() {
		comp := c.stream(30)
		if _, err := comp.Push(trajectory.S(10, 0, 0)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := comp.Push(trajectory.S(10, 1, 1)); err == nil {
			t.Fatalf("%s: accepted a non-increasing timestamp", c.name)
		}
		comp.Flush()
		// Reusable after Flush, per the Compressor contract.
		p := fuzzTrack(5, 50)
		got, err := Collect(comp, p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := Collect(c.stream(30), p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameTrajectory(got, want) {
			t.Fatalf("%s: reused compressor diverges from a fresh one", c.name)
		}
		// BufferLen stays ≤ 1: the one-pass O(1) memory guarantee.
		bl, ok := comp.(interface{ BufferLen() int })
		if !ok {
			t.Fatalf("%s: no BufferLen", c.name)
		}
		for i, s := range p {
			if _, err := comp.Push(s); err != nil {
				t.Fatal(err)
			}
			if n := bl.BufferLen(); n > 1 {
				t.Fatalf("%s: BufferLen %d after %d pushes", c.name, n, i+1)
			}
		}
		comp.Flush()
	}
}

// ParseFactory must expose the one-pass algorithms to the server flag and
// the wire protocol, and reject malformed specs.
func TestOnePassParseFactory(t *testing.T) {
	p := fuzzTrack(3, 80)
	for spec, fresh := range map[string]func() Compressor{
		"operb:40":  func() Compressor { return NewOPERB(40) },
		"ciseds:40": func() Compressor { return NewCISEDS(40) },
		"cisedw:40": func() Compressor { return NewCISEDW(40) },
	} {
		factory, err := ParseFactory(spec)
		if err != nil {
			t.Fatalf("ParseFactory(%q): %v", spec, err)
		}
		got, err := Collect(factory(), p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(fresh(), p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTrajectory(got, want) {
			t.Fatalf("spec %q built a different compressor", spec)
		}
	}
	for _, bad := range []string{"operb", "operb:-1", "operb:30:5", "ciseds:30:4", "cisedw:x"} {
		if _, err := ParseFactory(bad); err == nil {
			t.Fatalf("ParseFactory(%q) unexpectedly succeeded", bad)
		}
	}
}

// A quick sanity anchor for the head-to-head story: at a city-scale ε the
// one-pass algorithms must actually compress a fleet (not degenerate to
// retain-everything), or the CPU benchmark comparison would be vacuous.
func TestOnePassCompresses(t *testing.T) {
	g := gpsgen.New(7, gpsgen.Config{})
	p := g.Trip(gpsgen.Urban, 2400)
	for _, c := range onePassCases() {
		got, err := Collect(c.stream(30), p)
		if err != nil {
			t.Fatal(err)
		}
		if rate := compress.Rate(p.Len(), got.Len()); rate < 30 {
			t.Fatalf("%s removed only %.1f%% of an urban trip at ε=30m", c.name, rate)
		}
	}
}
