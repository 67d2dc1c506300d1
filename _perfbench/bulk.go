package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/repl"
	"repro/internal/trajectory"
)

// bulkConn is one closed-loop MAPPEND connection's record.
type bulkConn struct {
	rtt    dist // µs
	sent   []int64
	ack    []int64
	roots  []pending
	points int // samples acknowledged
	err    error
}

func runBulk(e *env, tr *tracer, nSetups int) (*phase, error) {
	in := newBulkInputs(e.seed)
	owner := make(map[string]int, len(in.ids))
	for j, id := range in.ids {
		owner[id] = j % 2
	}
	cfg := stackConfig{wal: true, walSync: 0, replicate: true, ackMode: repl.AckFollower,
		laneOf: func(_, id string) int { return owner[id] }}
	var s *stack
	var conns [2]*client
	teardown := func() {
		for i, c := range conns {
			if c != nil {
				c.close()
				conns[i] = nil
			}
		}
		if s != nil {
			s.close()
			s = nil
		}
	}
	defer teardown()
	setupS, err := repeatSetup(nSetups, func() error {
		var err error
		if s, err = startStack(e, cfg, tr); err != nil {
			return err
		}
		for i := range conns {
			if conns[i], err = dial(s.addr); err != nil {
				return err
			}
		}
		return nil
	}, teardown)
	if err != nil {
		return nil, err
	}

	// cursor[j] is the number of object j's samples acknowledged; each
	// object belongs to one connection, which alone advances its cursor.
	cursor := make([]int, len(in.ids))
	var res [2]bulkConn
	var lagMax int64
	stopLag := make(chan struct{})
	var wg sync.WaitGroup
	if tr != nil {
		tr.active.Store(true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lagMax = sampleLag(s, stopLag)
		}()
	}
	start := now()
	rounds := bulkRounds(e.seconds)
	var loops sync.WaitGroup
	for c := range conns {
		loops.Add(1)
		go func(c int) {
			defer loops.Done()
			res[c] = bulkLoop(conns[c], in, c, cursor, rounds, tr)
		}(c)
	}
	loops.Wait()
	end := now()
	if tr != nil {
		tr.active.Store(false)
		close(stopLag)
		wg.Wait()
	}
	for _, r := range res {
		if r.err != nil {
			return nil, r.err
		}
	}

	p := &phase{metrics: map[string]float64{}}
	var batch dist
	points, batches := 0, 0
	for _, r := range res {
		batch.v = append(batch.v, r.rtt.v...)
		points += r.points
		batches += r.rtt.n()
	}
	p.headline = batch
	p.attempted = batches
	p.say("MAPPEND×%d round trip: %s", bulkBatch, batch.describe("us"))
	p.say("acknowledged %d samples in %d batches over %.2f s", points, batches, float64(end-start)/1e9)

	sent := make([]trajectory.Trajectory, len(in.ids))
	for j := range in.ids {
		sent[j] = in.samples(j, cursor[j])
	}
	snaps, alphaM, err := checkObjects(p, conns[0], in.ids, sent, e.defaults.compress, false)
	if err != nil {
		return nil, err
	}
	stats := s.st.Stats()
	p.check(stats.RawPoints == points, "store ingested %d samples, %d were acknowledged", stats.RawPoints, points)

	// The follower must mirror the primary once the primary has shut its
	// log down (which logs every buffered tail) and the follower caught up.
	if err := s.durable.Close(); err != nil {
		return nil, fmt.Errorf("closing the primary's log: %w", err)
	}
	final := s.durable.AckedOffset()
	s.durable = nil
	if err := s.waitFollower(final); err != nil {
		p.check(false, "%v", err)
	} else {
		diff := 0
		for j, id := range in.ids {
			f, _ := s.fdurable.Snapshot(id)
			if !slices.Equal(f, snaps[j]) {
				diff++
			}
		}
		p.check(diff == 0, "%d of %d objects: the follower's snapshot differs from the primary's", diff, len(in.ids))
	}

	m := p.metrics
	m["setup_s"] = setupS
	m["ingest_pts_per_s"] = float64(points) / (float64(end-start) / 1e9)
	m["request_p50_us"] = batch.pct(50)
	m["batch_p50_us"], m["batch_p99_us"] = batch.pct(50), batch.blockP99()
	m["retained_pct"] = 100 * float64(stats.RetainedPoints) / float64(points)
	m["sed_alpha_m"] = alphaM
	m["failed_frac"] = float64(p.failed) / float64(p.attempted)
	m["store.retained"], m["store.objects"] = float64(stats.RetainedPoints), float64(stats.Objects)
	if tr != nil {
		for c := range res {
			r := &res[c]
			for i, pd := range r.roots {
				tr.record(span{id: pd.root, parent: noSpan, req: pd.req, name: spanClient, start: r.sent[i], end: r.ack[i]})
			}
		}
		l := tr.analyze()
		p.check(l.broken == 0, "%d traced requests lack exactly one backend span inside their round trip", l.broken)
		m["server.mappend_self_us.p50"] = l.serverSelf[kBatch].pct(50)
		m["wal.batch_us.p50"], m["wal.batch_us.p99"] = l.backend[kBatch].pct(50), l.backend[kBatch].p99()
		walLayer(m, l, s, batches, points)
		streamLayer(m, l, s)
		m["repl.follower_sync_us.p50"], m["repl.follower_sync_us.p99"] = l.replSync.pct(50), l.replSync.p99()
		m["repl.follower_syncs"] = float64(s.replFS.syncs.Load())
		m["repl.lag_bytes.max"] = float64(lagMax)
		p.say("server self (MAPPEND): %s; wal.batch: %s", l.serverSelf[kBatch].describe("us"), l.backend[kBatch].describe("us"))
		p.say("wal.sync: %s; follower sync: %s", l.walSync.describe("us"), l.replSync.describe("us"))
	}
	m["heap_mb"] = heapMB()
	return p, nil
}

// bulkRounds sizes the run: every object gets this many batches, so a run
// ingests the same samples however fast the host is, and takes about the
// requested seconds at bulkNominalRate. A time-bounded run would not do:
// a faster build would ingest more, holding more heap and longer parked
// windows than the build it is compared with.
func bulkRounds(seconds int) int {
	return int(math.Ceil(float64(seconds) * bulkNominalRate / (bulkObjects * bulkBatch)))
}

// bulkLoop sends MAPPEND batches closed-loop on connection c, round-robin
// over the objects it owns, rounds batches to each.
func bulkLoop(cl *client, in *bulkInputs, c int, cursor []int, rounds int, tr *tracer) bulkConn {
	var r bulkConn
	var objs []int
	for j := c; j < len(in.ids); j += 2 {
		objs = append(objs, j)
	}
	var buf []byte
	for k := 0; k < rounds*len(objs); k++ {
		j := objs[k%len(objs)]
		buf = append(buf[:0], "MAPPEND "...)
		buf = append(buf, in.ids[j]...)
		buf = append(buf, " "+strconv.Itoa(bulkBatch)+"\n"...)
		for i := 0; i < bulkBatch; i++ {
			smp := in.sample(j, cursor[j]+i)
			buf = appendNum(buf, smp.T)
			buf = appendNum(append(buf, ' '), smp.X)
			buf = appendNum(append(buf, ' '), smp.Y)
			buf = append(buf, '\n')
		}
		var pd pending
		if tr != nil {
			pd = tr.open(kBatch)
			tr.lanes[c].push(pd)
		}
		t0 := now()
		if _, err := cl.c.Write(buf); err != nil {
			r.err = err
			return r
		}
		b, err := cl.line()
		t1 := now()
		if err != nil {
			r.err = err
			return r
		}
		r.rtt.add(float64(t1-t0) / 1e3)
		if tr != nil {
			r.roots = append(r.roots, pd)
			r.sent = append(r.sent, t0)
			r.ack = append(r.ack, t1)
		}
		if string(b) != "OK appended="+strconv.Itoa(bulkBatch) {
			// An ERR leaves the object's acknowledged prefix unknown, and
			// with it every check of this run.
			r.err = fmt.Errorf("MAPPEND %s: %s", in.ids[j], b)
			return r
		}
		cursor[j] += bulkBatch
		r.points += bulkBatch
	}
	return r
}

// sampleLag polls the primary's and follower's durable offsets every
// millisecond until stop closes, returning the largest gap in bytes.
func sampleLag(s *stack, stop <-chan struct{}) int64 {
	var worst int64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return worst
		case <-tick.C:
			worst = max(worst, s.durable.AckedOffset()-s.fdurable.AckedOffset())
		}
	}
}
