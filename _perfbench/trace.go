package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A span records one call across a layer boundary, timed from
// the benchmark's own files around the call into the layer.
const (
	spanClient    uint8 = iota // client round trip: request written → reply read
	spanBackend                // server.Backend call (wal.* or store.*)
	spanPush                   // stream.Compressor.Push inside the backend call
	spanFanout                 // APPEND ack read → its POS line read at the subscriber
	spanWALWrite               // primary fault.File.Write
	spanWALSync                // primary fault.File.Sync
	spanReplWrite              // follower fault.File.Write
	spanReplSync               // follower fault.File.Sync
)

var spanNames = [...]string{"client", "backend", "stream.push", "bus.fanout", "wal.write", "wal.sync", "repl.follower_write", "repl.follower_sync"}

// noSpan marks a missing parent or request.
const noSpan = -1

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent and req are noSpan when the span has none.
type span struct {
	id, parent, req int32
	name            uint8
	start, end      int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a traced run in memory; write puts them on
// disk once the run is over. An untraced run has none.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	active atomic.Bool // spans are recorded only while the timed phase runs

	mu    sync.Mutex
	spans []span
	// kind tags each request id with the client request kind that opened
	// it, so backend spans can be split by what the client asked for.
	kind []reqKind

	lanes [2]lane
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int32 { return t.nextID.Add(1) - 1 }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// open allocates a request id and its root span id, tagged with kind. The
// caller queues it on the lane of the connection it writes to.
func (t *tracer) open(kind reqKind) pending {
	p := pending{req: t.newID(), root: t.newID()}
	t.mu.Lock()
	for int(p.req) >= len(t.kind) {
		t.kind = append(t.kind, 0)
	}
	t.kind[p.req] = kind
	t.mu.Unlock()
	return p
}

// pending names a request on its way to the server: its id and the id of
// its root client span.
type pending struct{ req, root int32 }

// lane is the FIFO of requests written on one client connection and not yet
// seen by the backend. The server handles one connection's commands in
// order, so the backend's n-th call from a connection is its n-th request.
type lane struct {
	mu sync.Mutex
	q  []pending
}

func (l *lane) push(p pending) {
	l.mu.Lock()
	l.q = append(l.q, p)
	l.mu.Unlock()
}

// pop returns the oldest queued request, or ok=false when none is queued
// (a call made outside the timed phase).
func (l *lane) pop() (p pending, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.q) == 0 {
		return pending{}, false
	}
	p = l.q[0]
	l.q = l.q[1:]
	return p, true
}

// selfTimes returns, indexed by span id, each span's duration minus the
// part of its interval its children cover. Children may overlap each other
// or stick out of the parent; only the covered part of the parent's own
// interval is subtracted. Span ids must lie in [0, nIDs).
func selfTimes(spans []span, nIDs int) []int64 {
	// Children in compressed-row form: kids[off[id]:off[id+1]] are the
	// indexes (into spans) of id's children.
	off := make([]int32, nIDs+1)
	for _, s := range spans {
		if s.parent != noSpan {
			off[s.parent+1]++
		}
	}
	for i := 1; i <= nIDs; i++ {
		off[i] += off[i-1]
	}
	kids := make([]int32, off[nIDs])
	fill := append([]int32(nil), off[:nIDs]...)
	for i, s := range spans {
		if s.parent != noSpan {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	self := make([]int64, nIDs)
	var ch []span
	for _, s := range spans {
		ch = ch[:0]
		for _, k := range kids[off[s.id]:off[s.id+1]] {
			ch = append(ch, spans[k])
		}
		self[s.id] = s.dur() - covered(s, ch)
	}
	return self
}

// covered is the length of the union of the children's intervals clipped
// to the parent's interval.
func covered(p span, ch []span) int64 {
	if len(ch) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(ch))
	for _, c := range ch {
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

const nKinds = int(kKnnCold) + 1

// layerSpans is what a traced run's spans say about each layer. Durations
// are in microseconds except push, in nanoseconds.
type layerSpans struct {
	rtt, backend, serverSelf, backendSelf [nKinds]dist
	push                                  dist
	walWrite, walSync, replSync           dist
	// broken counts client spans that do not hold exactly one backend span
	// inside their interval: a request the lanes paired wrongly.
	broken int
}

func (t *tracer) analyze() *layerSpans {
	n := int(t.nextID.Load())
	self := selfTimes(t.spans, n)
	inside := make([]int8, n) // backend spans inside each client span
	for _, s := range t.spans {
		if s.name == spanBackend && s.parent != noSpan {
			inside[s.parent]++
		}
	}
	parent := make([]span, n)
	for _, s := range t.spans {
		if s.name == spanClient {
			parent[s.id] = s
		}
	}
	l := &layerSpans{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, s := range t.spans {
		switch s.name {
		case spanClient:
			k := t.kind[s.req]
			l.rtt[k].add(us(s.dur()))
			l.serverSelf[k].add(us(self[s.id]))
			if inside[s.id] != 1 {
				l.broken++
			}
		case spanBackend:
			if s.req == noSpan {
				continue
			}
			k := t.kind[s.req]
			l.backend[k].add(us(s.dur()))
			l.backendSelf[k].add(us(self[s.id]))
			if p := parent[s.parent]; s.start < p.start || s.end > p.end {
				l.broken++
			}
		case spanPush:
			l.push.add(float64(s.dur()))
		case spanWALWrite:
			l.walWrite.add(us(s.dur()))
		case spanWALSync:
			l.walSync.add(us(s.dur()))
		case spanReplSync:
			l.replSync.add(us(s.dur()))
		}
	}
	return l
}

// write saves every span as gzip'd tab-separated text:
// id, parent, request, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, spanNames[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
