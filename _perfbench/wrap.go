package main

import (
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// tracedBackend is the server.Backend handed to server.New in a traced
// run. It records one span per call, parented to the client span of the
// request that caused it, and tells the compressor decorator which call a
// Push belongs to.
type tracedBackend struct {
	server.Backend
	tr *tracer
	// laneOf names the client connection a write or probe came from.
	laneOf func(method, id string) int

	mu  sync.Mutex
	cur map[string]call // object id → backend call in progress for it

	sealNs atomic.Int64 // duration of the last SealBefore
}

// call is one backend call in progress, as the compressor decorator sees it.
type call struct {
	req, span int32
	first     trajectory.Sample // first sample the call pushes
}

// begin opens a backend span for a call from the given lane. ok is false
// outside the timed phase, when nothing is recorded.
func (b *tracedBackend) begin(method, id string) (s span, ok bool) {
	if !b.tr.active.Load() {
		return span{}, false
	}
	p, queued := b.tr.lanes[b.laneOf(method, id)].pop()
	if !queued {
		p = pending{req: noSpan, root: noSpan}
	}
	return span{id: b.tr.newID(), parent: p.root, req: p.req, name: spanBackend, start: b.tr.now()}, true
}

func (b *tracedBackend) end(s span) {
	s.end = b.tr.now()
	b.tr.record(s)
}

func (b *tracedBackend) enter(id string, s span, first trajectory.Sample) {
	b.mu.Lock()
	b.cur[id] = call{req: s.req, span: s.id, first: first}
	b.mu.Unlock()
}

func (b *tracedBackend) leave(id string) {
	b.mu.Lock()
	delete(b.cur, id)
	b.mu.Unlock()
}

// lookup finds the call a compressor's Push belongs to. A compressor that
// does not yet know its object matches its first sample against the first
// sample of each call in progress.
func (b *tracedBackend) lookup(id *string, s trajectory.Sample) (call, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if *id == "" {
		for oid, c := range b.cur {
			if c.first == s {
				*id = oid
				return c, true
			}
		}
		return call{}, false
	}
	c, ok := b.cur[*id]
	return c, ok
}

func (b *tracedBackend) Append(id string, s trajectory.Sample) error {
	sp, ok := b.begin("Append", id)
	if !ok {
		return b.Backend.Append(id, s)
	}
	b.enter(id, sp, s)
	err := b.Backend.Append(id, s)
	b.leave(id)
	b.end(sp)
	return err
}

func (b *tracedBackend) AppendBatch(id string, ss []trajectory.Sample) (int, error) {
	sp, ok := b.begin("AppendBatch", id)
	if !ok || len(ss) == 0 {
		return b.Backend.AppendBatch(id, ss)
	}
	b.enter(id, sp, ss[0])
	n, err := b.Backend.AppendBatch(id, ss)
	b.leave(id)
	b.end(sp)
	return n, err
}

func (b *tracedBackend) RangePoints(rect geo.Rect, t0, t1 float64) []store.RangePoint {
	sp, ok := b.begin("RangePoints", "")
	out := b.Backend.RangePoints(rect, t0, t1)
	if ok {
		b.end(sp)
	}
	return out
}

func (b *tracedBackend) Nearest(q geo.Point, t float64, k int) []store.Neighbor {
	sp, ok := b.begin("Nearest", "")
	out := b.Backend.Nearest(q, t, k)
	if ok {
		b.end(sp)
	}
	return out
}

func (b *tracedBackend) SealBefore(t float64) (int, error) {
	start := b.tr.now()
	n, err := b.Backend.SealBefore(t)
	b.sealNs.Store(b.tr.now() - start)
	return n, err
}

// tracedCompressor decorates each per-object compressor the store creates:
// it times Push and counts points in and out.
type tracedCompressor struct {
	stream.Compressor
	b       *tracedBackend
	st      *streamStats
	id      string
	in, out int64
}

// streamStats aggregates every decorated compressor of one stack.
type streamStats struct {
	in, out   atomic.Int64
	windowMax atomic.Int64
}

// decorate wraps a compressor factory for a traced stack. A nil factory
// (no on-ingest compression) stays nil.
func decorate(newComp func() stream.Compressor, b *tracedBackend, st *streamStats) func() stream.Compressor {
	if newComp == nil {
		return nil
	}
	return func() stream.Compressor {
		return &tracedCompressor{Compressor: newComp(), b: b, st: st}
	}
}

func (c *tracedCompressor) Push(s trajectory.Sample) ([]trajectory.Sample, error) {
	tr := c.b.tr
	if !tr.active.Load() {
		out, err := c.Compressor.Push(s)
		c.count(len(out))
		return out, err
	}
	start := tr.now()
	out, err := c.Compressor.Push(s)
	end := tr.now()
	c.count(len(out))
	parent, req := int32(noSpan), int32(noSpan)
	if cl, ok := c.b.lookup(&c.id, s); ok {
		parent, req = cl.span, cl.req
	}
	tr.record(span{id: tr.newID(), parent: parent, req: req, name: spanPush, start: start, end: end})
	return out, err
}

// BufferLen passes the window size through to the store's own stream
// instruments, which read it from the compressor they wrap.
func (c *tracedCompressor) BufferLen() int {
	if bl, ok := c.Compressor.(interface{ BufferLen() int }); ok {
		return bl.BufferLen()
	}
	return 0
}

func (c *tracedCompressor) count(emitted int) {
	c.in++
	c.out += int64(emitted)
	c.st.in.Add(1)
	c.st.out.Add(int64(emitted))
	backlog := c.in - c.out
	for {
		m := c.st.windowMax.Load()
		if backlog <= m || c.st.windowMax.CompareAndSwap(m, backlog) {
			return
		}
	}
}

// timingFS is the fault.FS handed to wal.OpenDurableFS in a traced run: it
// times every Write and Sync of the files the log opens.
type timingFS struct {
	fault.FS
	tr           *tracer
	write, sync  uint8 // span names
	bytes, syncs atomic.Int64
}

func (fs *timingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs}, nil
}

type timingFile struct {
	fault.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	tr := f.fs.tr
	if !tr.active.Load() {
		return f.File.Write(p)
	}
	start := tr.now()
	n, err := f.File.Write(p)
	tr.record(span{id: tr.newID(), parent: noSpan, req: noSpan, name: f.fs.write, start: start, end: tr.now()})
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error {
	tr := f.fs.tr
	if !tr.active.Load() {
		return f.File.Sync()
	}
	start := tr.now()
	err := f.File.Sync()
	tr.record(span{id: tr.newID(), parent: noSpan, req: noSpan, name: f.fs.sync, start: start, end: tr.now()})
	f.fs.syncs.Add(1)
	return err
}
