package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// querySealEps is the cold tier's error bound in this workload (-seal-eps).
const querySealEps = 10

// verifyProbes is how many probes of each class the verification pass
// re-issues and checks against brute force.
const verifyProbes = 40

func runQuery(e *env, tr *tracer, nSetups int) (*phase, error) {
	in, err := newQueryInputs(e.seed, e.seconds)
	if err != nil {
		return nil, err
	}
	cfg := stackConfig{sealEps: querySealEps, laneOf: func(method, _ string) int {
		if method == "RangePoints" || method == "Nearest" {
			return 0
		}
		return 1
	}}
	var s *stack
	var prober, app *client
	teardown := func() {
		for _, c := range []*client{prober, app} {
			if c != nil {
				c.close()
			}
		}
		if s != nil {
			s.close()
		}
		s, prober, app = nil, nil, nil
	}
	defer teardown()
	var sealed int
	setupS, err := repeatSetup(nSetups, func() error {
		var err error
		if s, err = startStack(e, cfg, tr); err != nil {
			return err
		}
		if prober, err = dial(s.addr); err != nil {
			return err
		}
		if app, err = dial(s.addr); err != nil {
			return err
		}
		if err := preload(prober, in); err != nil {
			return err
		}
		reply, err := prober.do([]byte("SEAL " + strconv.FormatFloat(in.tSeal, 'g', -1, 64) + "\n"))
		if err != nil {
			return err
		}
		sealed, err = strconv.Atoi(reply[len("OK sealed="):])
		return err
	}, teardown)
	if err != nil {
		return nil, err
	}

	n := len(in.stream)
	ol := &openLoop{c: app, n: n, rate: queryRate, tr: tr, lane: 1, kind: kAppend,
		line: func(i int, buf []byte) []byte { r := in.stream[i]; return appendLine(buf, in.ids[r.obj], r.s) }}
	if tr != nil {
		tr.active.Store(true)
	}
	start := now() + int64(time.Millisecond)
	stop := make(chan struct{})
	probeDone := make(chan probeRun, 1)
	go func() { probeDone <- runProbes(prober, newProbes(in, e.seed), tr, stop) }()
	olErr := ol.run(start)
	close(stop)
	pr := <-probeDone
	if tr != nil {
		tr.active.Store(false)
	}
	if olErr != nil {
		return nil, olErr
	}
	if pr.err != nil {
		return nil, pr.err
	}

	p := &phase{metrics: map[string]float64{}}
	fromDue, late, _, _, oks, last := ol.stats()
	var rangeAll, knnAll dist
	for k := kRangeHot; k <= kKnnCold; k++ {
		if k.isRange() {
			rangeAll.v = append(rangeAll.v, pr.rtt[k].v...)
		} else {
			knnAll.v = append(knnAll.v, pr.rtt[k].v...)
		}
	}
	p.headline = pr.all
	p.attempted = n + pr.probes
	p.failed = (n - oks) + pr.errs
	p.check(late.pct(99) <= float64(lateBound/time.Microsecond), "open-loop sender ran %.0f us late at p99 (bound %v): the run is invalid", late.pct(99), lateBound)
	p.say("APPEND from due: %s; sender lateness %s", fromDue.describe("us"), late.describe("us"))
	p.say("probe round trip: %s", pr.all.describe("us"))
	p.say("QUERYRANGE: %s (hot %s; cold %s)", rangeAll.describe("us"), pr.rtt[kRangeHot].describe("us"), pr.rtt[kRangeCold].describe("us"))
	p.say("NEAREST: %s (hot %s; cold %s)", knnAll.describe("us"), pr.rtt[kKnnHot].describe("us"), pr.rtt[kKnnCold].describe("us"))
	p.say("probes: %d, %d failed; %.1f points per QUERYRANGE", pr.probes, pr.errs, pr.rangePts.mean())

	sent := make([]trajectory.Trajectory, queryObjects)
	for i := range in.ids {
		sent[i] = append(trajectory.Trajectory(nil), in.preload(i)...)
	}
	for i, r := range in.stream {
		if ol.ok[i] {
			sent[r.obj] = append(sent[r.obj], r.s)
		}
	}
	snaps, alphaM, err := checkObjects(p, prober, in.ids, sent, e.defaults.compress, true)
	if err != nil {
		return nil, err
	}
	if err := verifyAnswers(p, prober, in, e.seed, e.defaults.compress, sent, snaps); err != nil {
		return nil, err
	}
	stats := s.st.Stats()
	acked := queryObjects*queryHistory + oks
	p.check(stats.RawPoints == acked, "store ingested %d samples, %d were acknowledged", stats.RawPoints, acked)

	m := p.metrics
	m["setup_s"] = setupS
	m["ingest_pts_per_s"] = float64(oks) / (float64(last-start) / 1e9)
	m["request_p50_us"] = pr.all.pct(50)
	m["append_p50_us"], m["append_p99_us"] = fromDue.pct(50), fromDue.blockP99()
	m["range_p50_us"], m["range_p99_us"] = rangeAll.pct(50), rangeAll.blockP99()
	m["knn_p50_us"], m["knn_p99_us"] = knnAll.pct(50), knnAll.blockP99()
	m["retained_pct"] = 100 * float64(stats.RetainedPoints+stats.SealedPoints) / float64(acked)
	m["sed_alpha_m"] = alphaM
	m["failed_frac"] = float64(p.failed) / float64(p.attempted)
	m["gen.late_p99_us"] = late.p99()
	m["store.range_pts"] = pr.rangePts.mean()
	m["store.retained"], m["store.objects"] = float64(stats.RetainedPoints), float64(stats.Objects)
	m["seal.sealed_pts"] = float64(stats.SealedPoints)
	if stats.SealedPoints > 0 {
		m["seal.footprint_ratio"] = float64(stats.SealedBytes) / float64(24*stats.SealedPoints)
	}
	p.say("sealed %d samples into %d blocks (%d bytes)", sealed, stats.SealedBlocks, stats.SealedBytes)
	if tr != nil {
		for i, pd := range pr.roots {
			tr.record(span{id: pd.root, parent: noSpan, req: pd.req, name: spanClient, start: pr.sent[i], end: pr.ack[i]})
		}
		l := tr.analyze()
		p.check(l.broken == 0, "%d traced requests lack exactly one backend span inside their round trip", l.broken)
		var self dist
		self.v = append(append(self.v, l.serverSelf[kRangeHot].v...), l.serverSelf[kRangeCold].v...)
		m["server.query_self_us.p50"] = self.pct(50)
		for _, x := range []struct {
			name string
			k    reqKind
		}{{"store.range_hot_us", kRangeHot}, {"store.range_cold_us", kRangeCold}, {"store.knn_hot_us", kKnnHot}, {"store.knn_cold_us", kKnnCold}} {
			m[x.name+".p50"], m[x.name+".p99"] = l.backend[x.k].pct(50), l.backend[x.k].p99()
		}
		m["store.append_us.p50"] = l.backend[kAppend].pct(50)
		m["seal.seal_s"] = float64(s.traced.sealNs.Load()) / 1e9
		streamLayer(m, l, s)
		p.say("store.range hot %s, cold %s", l.backend[kRangeHot].describe("us"), l.backend[kRangeCold].describe("us"))
	}
	m["heap_mb"] = heapMB()
	return p, nil
}

// preload sends every object's history by MAPPEND before the timed phase.
func preload(c *client, in *queryInputs) error {
	var buf []byte
	for i, id := range in.ids {
		hist := in.preload(i)
		for lo := 0; lo < len(hist); lo += bulkBatch {
			batch := hist[lo:min(lo+bulkBatch, len(hist))]
			buf = append(append(append(buf[:0], "MAPPEND "...), id...), ' ')
			buf = append(strconv.AppendInt(buf, int64(len(batch)), 10), '\n')
			for _, smp := range batch {
				buf = appendNum(buf, smp.T)
				buf = appendNum(append(buf, ' '), smp.X)
				buf = appendNum(append(buf, ' '), smp.Y)
				buf = append(buf, '\n')
			}
			if _, err := c.do(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeRun is the closed-loop prober's record.
type probeRun struct {
	rtt       [nKinds]dist // µs, by probe class
	all       dist         // µs, every probe in the order sent
	rangePts  dist
	probes    int
	errs      int
	sent, ack []int64
	roots     []pending
	err       error
}

// runProbes issues probes back to back until stop closes.
func runProbes(c *client, ps *probes, tr *tracer, stop <-chan struct{}) probeRun {
	var r probeRun
	var buf []byte
	for {
		select {
		case <-stop:
			return r
		default:
		}
		pb := ps.next()
		buf = pb.line(buf[:0])
		var pd pending
		if tr != nil {
			pd = tr.open(pb.kind)
			tr.lanes[0].push(pd)
		}
		lines := 0
		t0 := now()
		err := c.lines(buf, func([]byte) error { lines++; return nil })
		t1 := now()
		r.probes++
		if err != nil {
			if _, remote := err.(remoteErr); !remote {
				r.err = err
				return r
			}
			r.errs++
		}
		r.rtt[pb.kind].add(float64(t1-t0) / 1e3)
		r.all.add(float64(t1-t0) / 1e3)
		if pb.kind.isRange() {
			r.rangePts.add(float64(lines))
		}
		if tr != nil {
			r.roots = append(r.roots, pd)
			r.sent = append(r.sent, t0)
			r.ack = append(r.ack, t1)
		}
	}
}

// verifyAnswers re-issues the first probes of the run's sequence, now that
// appends have stopped, and checks each answer against brute force:
// hot QUERYRANGE against the SNAPSHOTs, cold QUERYRANGE against the samples
// sent, hot NEAREST against POSITION answers, cold NEAREST against the sent
// trajectories.
func verifyAnswers(p *phase, c *client, in *queryInputs, seed int64, spec string, sent, snaps []trajectory.Trajectory) error {
	compEps, _ := sedBound(spec)
	ps := newProbes(in, seed)
	counts := map[reqKind]int{}
	bad := map[reqKind]int{}
	for done := 0; done < 4*verifyProbes; {
		pb := ps.next()
		if counts[pb.kind] >= verifyProbes {
			continue
		}
		counts[pb.kind]++
		done++
		var ok bool
		var err error
		switch pb.kind {
		case kRangeHot:
			ok, err = verifyHotRange(c, pb, in.ids, snaps)
		case kRangeCold:
			ok, err = verifyColdRange(c, pb, in.ids, sent)
		case kKnnHot:
			ok, err = verifyHotKnn(c, pb, in.ids, sent, compEps)
		case kKnnCold:
			ok, err = verifyColdKnn(c, pb, in.ids, sent, compEps)
		}
		if err != nil {
			return err
		}
		if !ok {
			bad[pb.kind]++
		}
	}
	names := map[reqKind]string{kRangeHot: "hot QUERYRANGE answers differ from a brute-force filter of the SNAPSHOTs",
		kRangeCold: "cold QUERYRANGE answers hold points farther than the seal ε from every sent sample",
		kKnnHot:    "hot NEAREST rankings differ from a brute-force ranking of POSITION answers",
		kKnnCold:   "cold NEAREST answers stray beyond ε from the sent trajectories or are out of order"}
	for k := kRangeHot; k <= kKnnCold; k++ {
		p.check(bad[k] == 0, "%d of %d %s", bad[k], counts[k], names[k])
	}
	p.say("verified %d probes of each class against brute force", verifyProbes)
	return nil
}

type rangePoint struct {
	id      string
	t, x, y float64
}

func queryRange(c *client, pb probe) ([]rangePoint, error) {
	var out []rangePoint
	err := c.lines(pb.line(nil), func(b []byte) error {
		f := bytes.Fields(b)
		if len(f) != 4 {
			return fmt.Errorf("bad QUERYRANGE line %q", b)
		}
		v, err := floats(bytes.Join(f[1:], []byte(" ")), 3)
		if err != nil {
			return err
		}
		out = append(out, rangePoint{string(f[0]), v[0], v[1], v[2]})
		return nil
	})
	return out, err
}

func verifyHotRange(c *client, pb probe, ids []string, snaps []trajectory.Trajectory) (bool, error) {
	got, err := queryRange(c, pb)
	if err != nil {
		return false, err
	}
	var want []rangePoint
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	for _, i := range order {
		for _, s := range snaps[i] {
			if s.T >= pb.t0 && s.T <= pb.t1 && pb.rect.Contains(s.Pos()) {
				want = append(want, rangePoint{ids[i], s.T, s.X, s.Y})
			}
		}
	}
	if len(got) != len(want) {
		return false, nil
	}
	for i := range got {
		if got[i] != want[i] {
			return false, nil
		}
	}
	return true, nil
}

func verifyColdRange(c *client, pb probe, ids []string, sent []trajectory.Trajectory) (bool, error) {
	got, err := queryRange(c, pb)
	if err != nil {
		return false, err
	}
	index := idIndex(ids)
	for _, g := range got {
		i, ok := index[g.id]
		if !ok {
			return false, nil
		}
		s := nearestInTime(sent[i], g.t)
		if math.Abs(s.T-g.t) > 0.5 || s.Pos().Dist(geo.Pt(g.x, g.y)) > querySealEps+sedTolerance {
			return false, nil
		}
	}
	return true, nil
}

type neighbor struct {
	id   string
	x, y float64
	d    float64
}

func nearest(c *client, pb probe) ([]neighbor, error) {
	var out []neighbor
	err := c.lines(pb.line(nil), func(b []byte) error {
		f := bytes.Fields(b)
		if len(f) != 4 {
			return fmt.Errorf("bad NEAREST line %q", b)
		}
		v, err := floats(bytes.Join(f[1:], []byte(" ")), 3)
		if err != nil {
			return err
		}
		out = append(out, neighbor{string(f[0]), v[0], v[1], v[2]})
		return nil
	})
	return out, err
}

// verifyHotKnn checks a NEAREST answer against a brute-force ranking of
// POSITION answers. POSITION reads the hot tier only, so an object whose
// position at t lives only in the sealed tier (just after the SEAL time,
// before its first hot sample) is checked as a cold answer instead, and
// the rest of the answer must be the brute-force ranking's prefix.
func verifyHotKnn(c *client, pb probe, ids []string, sent []trajectory.Trajectory, compEps float64) (bool, error) {
	got, err := nearest(c, pb)
	if err != nil {
		return false, err
	}
	// POSITION for every object, pipelined in one write.
	var req []byte
	for _, id := range ids {
		req = append(append(append(req, "POSITION "...), id...), ' ')
		req = append(appendNum(req, pb.t), '\n')
	}
	if _, err := c.c.Write(req); err != nil {
		return false, err
	}
	var all []neighbor
	hot := make(map[string]bool, len(ids))
	for _, id := range ids {
		b, err := c.line()
		if err != nil {
			return false, err
		}
		if !bytes.HasPrefix(b, []byte("OK ")) {
			continue // no hot position at t
		}
		v, err := floats(b[3:], 2)
		if err != nil {
			return false, err
		}
		hot[id] = true
		all = append(all, neighbor{id, v[0], v[1], geo.Pt(v[0], v[1]).Dist(pb.q)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	var gotHot, gotCold []neighbor
	for _, g := range got {
		if hot[g.id] {
			gotHot = append(gotHot, g)
		} else {
			gotCold = append(gotCold, g)
		}
	}
	if len(got) != min(knnK, len(ids)) || len(gotHot) > len(all) {
		return false, nil
	}
	for i := range gotHot {
		if gotHot[i] != all[i] {
			return false, nil
		}
	}
	return len(gotCold) == 0 || checkColdNeighbors(pb, got, gotCold, ids, sent, compEps), nil
}

func verifyColdKnn(c *client, pb probe, ids []string, sent []trajectory.Trajectory, compEps float64) (bool, error) {
	got, err := nearest(c, pb)
	if err != nil {
		return false, err
	}
	return len(got) > 0 && checkColdNeighbors(pb, got, got, ids, sent, compEps), nil
}

// checkColdNeighbors checks NEAREST entries answered from the sealed tier:
// each lies within the compressor's plus the seal's ε of where the object
// really was at t, and the whole answer is ordered by its distances.
func checkColdNeighbors(pb probe, got, cold []neighbor, ids []string, sent []trajectory.Trajectory, compEps float64) bool {
	index := idIndex(ids)
	for _, g := range cold {
		j, ok := index[g.id]
		if !ok {
			return false
		}
		truth, ok := sent[j].LocAt(pb.t)
		if !ok || truth.Dist(geo.Pt(g.x, g.y)) > compEps+querySealEps+sedTolerance {
			return false
		}
	}
	for i, g := range got {
		if math.Abs(geo.Pt(g.x, g.y).Dist(pb.q)-g.d) > sedTolerance || (i > 0 && g.d < got[i-1].d) {
			return false
		}
	}
	return true
}

func idIndex(ids []string) map[string]int {
	m := make(map[string]int, len(ids))
	for i, id := range ids {
		m[id] = i
	}
	return m
}

// nearestInTime returns the sample of p whose time is closest to t.
func nearestInTime(p trajectory.Trajectory, t float64) trajectory.Sample {
	i := sort.Search(len(p), func(i int) bool { return p[i].T >= t })
	switch {
	case i == len(p):
		return p[len(p)-1]
	case i > 0 && t-p[i-1].T < p[i].T-t:
		return p[i-1]
	}
	return p[i]
}
