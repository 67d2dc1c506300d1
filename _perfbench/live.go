package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"time"

	"repro/internal/trajectory"
)

// feedWait bounds how long the subscriber may trail the last APPEND reply.
const feedWait = 5 * time.Second

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// repeatSetup sets the stack up n times and keeps the last one, returning
// the median set-up time in seconds. With n > 1 an extra first set-up
// warms the process (first-use page faults and code paths) untimed.
func repeatSetup(n int, setup func() error, teardown func()) (float64, error) {
	var times []float64
	warm := n > 1
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		if warm {
			warm = false
			i--
		} else {
			times = append(times, time.Since(t0).Seconds())
		}
		if i < n-1 {
			teardown()
		}
	}
	return median(times), nil
}

// heapMB is the live heap after a forced collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func appendLine(buf []byte, id string, s trajectory.Sample) []byte {
	buf = append(append(buf, "APPEND "...), id...)
	for _, v := range [...]float64{s.T, s.X, s.Y} {
		buf = appendNum(append(buf, ' '), v)
	}
	return append(buf, '\n')
}

func runLive(e *env, tr *tracer, nSetups int) (*phase, error) {
	in, err := newLiveInputs(e.seed, e.seconds)
	if err != nil {
		return nil, err
	}
	cfg := stackConfig{wal: true, walSync: e.defaults.walSync, laneOf: func(string, string) int { return 0 }}
	var s *stack
	var app, sub *client
	teardown := func() {
		for _, c := range []*client{app, sub} {
			if c != nil {
				c.close()
			}
		}
		if s != nil {
			s.close()
		}
		s, app, sub = nil, nil, nil
	}
	defer teardown()
	setupS, err := repeatSetup(nSetups, func() error {
		var err error
		if s, err = startStack(e, cfg, tr); err != nil {
			return err
		}
		if app, err = dial(s.addr); err != nil {
			return err
		}
		if sub, err = dial(s.addr); err != nil {
			return err
		}
		_, err = sub.do([]byte("SUBSCRIBE *\n"))
		return err
	}, teardown)
	if err != nil {
		return nil, err
	}

	n := len(in.reqs)
	feed := newFeed(in)
	feedDone := make(chan error, 1)
	go func() { feedDone <- feed.read(sub) }()
	ol := &openLoop{c: app, n: n, rate: liveRate, tr: tr, lane: 0, kind: kAppend,
		line: func(i int, buf []byte) []byte { r := in.reqs[i]; return appendLine(buf, in.ids[r.obj], r.s) }}
	if tr != nil {
		tr.active.Store(true)
	}
	start := now() + int64(time.Millisecond)
	if err := ol.run(start); err != nil {
		return nil, err
	}
	select {
	case err = <-feedDone:
	case <-time.After(feedWait):
		_ = sub.c.SetReadDeadline(time.Now()) // lines still missing count as dropped
		err = <-feedDone
	}
	if tr != nil {
		tr.active.Store(false)
	}
	if err != nil && !isTimeout(err) {
		return nil, fmt.Errorf("reading the feed: %w", err)
	}

	feed.match()
	p := &phase{metrics: map[string]float64{}}
	fromDue, late, rtt, replied, oks, last := ol.stats()
	p.headline = rtt
	var feedLat, fanout dist
	delivered := 0
	for i, t := range feed.pos {
		if t == 0 {
			continue
		}
		delivered++
		feedLat.add(float64(t-ol.due[i]) / 1e3)
		if ol.ack[i] != 0 {
			fanout.add(float64(t-ol.ack[i]) / 1e3)
			if tr != nil {
				tr.record(span{id: tr.newID(), parent: noSpan, req: ol.roots[i].req, name: spanFanout, start: ol.ack[i], end: t})
			}
		}
	}
	dropped := n - delivered
	// The feed is best effort by design (a saturated ring drops lines
	// rather than stall ingest), so a dropped line fails no request; it
	// counts in failed_frac, whose share covers the feed lines too.
	p.attempted = n
	p.failed = n - oks
	p.check(feed.wrong == 0, "%d feed lines differ from the APPEND they report", feed.wrong)
	p.check(late.pct(99) <= float64(lateBound/time.Microsecond), "open-loop sender ran %.0f us late at p99 (bound %v): the run is invalid", late.pct(99), lateBound)
	p.say("APPEND from due: %s; round trip %s", fromDue.describe("us"), rtt.describe("us"))
	p.say("feed from due: %s; delivered %d of %d", feedLat.describe("us"), delivered, n)
	p.say("sender lateness: %s", late.describe("us"))
	p.say("replies: %d of %d, %d OK", replied, n, oks)

	sent := make([]trajectory.Trajectory, liveObjects)
	for i, r := range in.reqs {
		if ol.ok[i] {
			sent[r.obj] = append(sent[r.obj], r.s)
		}
	}
	_, alphaM, err := checkObjects(p, app, in.ids, sent, e.defaults.compress, false)
	if err != nil {
		return nil, err
	}
	stats := s.st.Stats()
	p.check(stats.RawPoints == oks, "store ingested %d samples, %d were acknowledged", stats.RawPoints, oks)

	m := p.metrics
	m["setup_s"] = setupS
	m["ingest_pts_per_s"] = float64(oks) / (float64(last-start) / 1e9)
	m["request_p50_us"] = fromDue.pct(50)
	m["append_p50_us"], m["append_p99_us"] = fromDue.pct(50), fromDue.blockP99()
	m["feed_p50_us"], m["feed_p99_us"] = feedLat.pct(50), feedLat.blockP99()
	m["retained_pct"] = 100 * float64(stats.RetainedPoints) / float64(oks)
	m["sed_alpha_m"] = alphaM
	m["failed_frac"] = float64(p.failed+dropped) / float64(2*n)
	m["gen.late_p99_us"] = late.p99()
	m["bus.fanout_us.p50"], m["bus.fanout_us.p99"] = fanout.pct(50), fanout.p99()
	m["bus.delivered"], m["bus.dropped"] = float64(delivered), float64(dropped)
	m["store.retained"], m["store.objects"] = float64(stats.RetainedPoints), float64(stats.Objects)
	if tr != nil {
		l := tr.analyze()
		p.check(l.broken == 0, "%d traced requests lack exactly one backend span inside their round trip", l.broken)
		m["server.append_self_us.p50"], m["server.append_self_us.p99"] = l.serverSelf[kAppend].pct(50), l.serverSelf[kAppend].p99()
		m["wal.append_us.p50"], m["wal.append_us.p99"] = l.backend[kAppend].pct(50), l.backend[kAppend].p99()
		m["wal.append_self_us.p50"] = l.backendSelf[kAppend].pct(50)
		walLayer(m, l, s, oks, oks)
		streamLayer(m, l, s)
		p.say("server self: %s; wal.append: %s", l.serverSelf[kAppend].describe("us"), l.backend[kAppend].describe("us"))
	}
	m["heap_mb"] = heapMB()
	return p, nil
}

// walLayer fills the metrics the primary's timing fault.FS measures.
func walLayer(m map[string]float64, l *layerSpans, s *stack, acks, points int) {
	m["wal.sync_us.p50"], m["wal.sync_us.p99"] = l.walSync.pct(50), l.walSync.p99()
	m["wal.write_us.p50"] = l.walWrite.pct(50)
	syncs := s.walFS.syncs.Load()
	m["wal.syncs"] = float64(syncs)
	m["wal.syncs_per_ack"] = float64(syncs) / float64(acks)
	m["wal.bytes_per_pt"] = float64(s.walFS.bytes.Load()) / float64(points)
}

// streamLayer fills the metrics of the compressor decorator.
func streamLayer(m map[string]float64, l *layerSpans, s *stack) {
	m["stream.push_ns.mean"], m["stream.push_ns.p99"] = l.push.mean(), l.push.p99()
	if s.streams != nil {
		m["stream.window_max"] = float64(s.streams.windowMax.Load())
		m["stream.points_in"] = float64(s.streams.in.Load())
		m["stream.points_out"] = float64(s.streams.out.Load())
	}
}

// feed reads a SUBSCRIBE * connection and matches each POS line to the
// APPEND it reports. Lines are only stored while the run lasts, so the
// subscriber costs the host as little CPU as possible; matching comes after.
type feed struct {
	in    *liveInputs
	raw   []byte  // every POS line received, back to back
	ends  []int   // end offset of each line in raw
	at    []int64 // arrival of each line
	pos   []int64 // arrival of each request's POS line; 0 = not seen
	wrong int
}

func newFeed(in *liveInputs) *feed {
	n := len(in.reqs)
	return &feed{in: in, raw: make([]byte, 0, 64*n), ends: make([]int, 0, n), at: make([]int64, 0, n), pos: make([]int64, n)}
}

// read stores POS lines until one per request has arrived or the
// connection fails.
func (f *feed) read(c *client) error {
	for len(f.at) < len(f.pos) {
		b, err := c.line()
		if err != nil {
			return err
		}
		f.at = append(f.at, now())
		f.raw = append(f.raw, b...)
		f.ends = append(f.ends, len(f.raw))
	}
	return nil
}

// match pairs each stored line with the APPEND it reports, which must be
// the same sample. A line dropped by the server's slow-consumer policy is
// skipped over by timestamp.
func (f *feed) match() {
	byObj := make([][]int32, len(f.in.ids)) // request indexes of each object, in send order
	for i, r := range f.in.reqs {
		byObj[r.obj] = append(byObj[r.obj], int32(i))
	}
	cursor := make([]int, len(f.in.ids))
	var want []byte
	start := 0
	for n, end := range f.ends {
		b := f.raw[start:end]
		start = end
		fields := bytes.Fields(b)
		if len(fields) != 5 || string(fields[0]) != "POS" || len(fields[1]) < 4 {
			f.wrong++
			continue
		}
		obj, err1 := strconv.Atoi(string(fields[1][3:]))
		ts, err2 := strconv.ParseFloat(string(fields[2]), 64)
		if err1 != nil || err2 != nil || obj < 0 || obj >= len(byObj) {
			f.wrong++
			continue
		}
		reqs := byObj[obj]
		k := cursor[obj]
		for k < len(reqs) && f.in.reqs[reqs[k]].s.T < ts {
			k++
		}
		if k == len(reqs) {
			f.wrong++
			continue
		}
		i := reqs[k]
		cursor[obj] = k + 1
		r := f.in.reqs[i]
		want = appendLine(want[:0], f.in.ids[r.obj], r.s)
		if !bytes.Equal(bytes.TrimPrefix(want[:len(want)-1], []byte("APPEND ")), b[len("POS "):]) {
			f.wrong++
			continue
		}
		f.pos[i] = f.at[n]
	}
}
