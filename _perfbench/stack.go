package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wal"
)

// defaults are trajserver's own flag defaults, read from its -h output at
// run time, so a change to a deployed default is measured by an unchanged
// benchmark.
type defaults struct {
	compress   string
	cell       float64
	index      string
	shards     int
	subBuf     int
	walSync    int
	sealBlock  int
	replMaxLag uint64
}

var flagLine = regexp.MustCompile(`^\s+-([a-z-]+)`)
var defaultVal = regexp.MustCompile(`\(default ("[^"]*"|\S+)\)`)

// readDefaults runs `trajserver -h` and parses the flag defaults it prints.
func readDefaults(bin string) (defaults, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero on some Go versions; the text is what counts
	return parseDefaults(string(out))
}

// parseDefaults reads flag defaults from the flag package's usage text.
func parseDefaults(out string) (defaults, error) {
	vals := map[string]string{}
	var cur string
	for _, line := range strings.Split(out, "\n") {
		if m := flagLine.FindStringSubmatch(line); m != nil {
			cur = m[1]
			vals[cur] = ""
		}
		if m := defaultVal.FindStringSubmatch(line); m != nil && cur != "" {
			vals[cur] = strings.Trim(m[1], `"`)
		}
	}
	var d defaults
	var err error
	get := func(name string) string {
		v, ok := vals[name]
		if !ok && err == nil {
			err = fmt.Errorf("trajserver -h lists no -%s flag:\n%s", name, out)
		}
		return v
	}
	num := func(name string) float64 {
		s := get(name)
		if s == "" {
			return 0
		}
		v, perr := strconv.ParseFloat(s, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("trajserver -%s default %q: %v", name, s, perr)
		}
		return v
	}
	d.compress = get("compress")
	d.cell = num("cell")
	d.shards = int(num("shards"))
	d.subBuf = int(num("sub-buf"))
	d.walSync = int(num("wal-sync"))
	d.sealBlock = int(num("seal-block"))
	d.replMaxLag = uint64(num("repl-max-lag"))
	d.index = get("index")
	if _, ierr := indexKind(d.index); ierr != nil && err == nil {
		err = ierr
	}
	return d, err
}

func indexKind(name string) (store.IndexKind, error) {
	switch name {
	case "grid":
		return store.IndexGrid, nil
	case "rtree":
		return store.IndexRTree, nil
	}
	return 0, fmt.Errorf("trajserver -index default %q is unknown", name)
}

// sedBound returns the synchronized-distance bound of a compressor spec:
// the distance threshold of the algorithms that bound SED. ok is false for
// specs whose threshold bounds another distance.
func sedBound(spec string) (eps float64, ok bool) {
	parts := strings.Split(spec, ":")
	switch strings.ToLower(parts[0]) {
	case "none":
		return 0, true
	case "opwtr", "opwsp", "ciseds", "cisedw":
		v, err := strconv.ParseFloat(parts[1], 64)
		return v, err == nil
	}
	return 0, false
}

// stackConfig is what a workload sets; everything else is a trajserver
// default.
type stackConfig struct {
	wal       bool
	walSync   int // used when wal is set
	replicate bool
	ackMode   repl.Mode
	sealEps   float64
	laneOf    func(method, id string) int // request routing for a traced run
}

// stack is one in-process trajserver node, plus a replication follower
// when the workload asks for one, all in a fresh directory.
type stack struct {
	dir      string
	addr     string
	st       *store.Store
	durable  *wal.DurableStore
	traced   *tracedBackend
	srv      *server.Server
	serveErr chan error
	primary  *repl.Primary
	fdurable *wal.DurableStore
	follower *repl.Follower
	walFS    *timingFS
	replFS   *timingFS
	streams  *streamStats
}

func startStack(env *env, cfg stackConfig, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(env.tmp, "stack-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, serveErr: make(chan error, 1)}
	if err := s.start(env, cfg, tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(env *env, cfg stackConfig, tr *tracer) error {
	d := env.defaults
	factory, err := stream.ParseFactory(d.compress)
	if err != nil {
		return err
	}
	index, err := indexKind(d.index)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	opts := store.Options{
		NewCompressor: factory, CellSize: d.cell, Index: index, Shards: d.shards,
		SealEps: cfg.sealEps, SealBlockPoints: d.sealBlock, Metrics: reg,
	}
	if tr != nil {
		// The backend the decorated compressors report to is wired below,
		// once it exists; the factory is only called on a first append.
		s.traced = &tracedBackend{tr: tr, laneOf: cfg.laneOf, cur: make(map[string]call)}
		s.streams = &streamStats{}
		opts.NewCompressor = decorate(factory, s.traced, s.streams)
	}
	var walFS fault.FS = fault.NewFS(fault.OS, fault.NewSet(reg))
	if tr != nil {
		s.walFS = &timingFS{FS: walFS, tr: tr, write: spanWALWrite, sync: spanWALSync}
		walFS = s.walFS
	}
	var backend server.Backend
	if cfg.wal {
		s.durable, err = wal.OpenDurableFS(walFS, filepath.Join(s.dir, "primary.wal"), opts)
		if err != nil {
			return err
		}
		s.durable.SetSyncEvery(cfg.walSync)
		s.st, backend = s.durable.Store, s.durable
	} else {
		s.st = store.New(opts)
		backend = s.st
	}
	if s.traced != nil {
		s.traced.Backend = backend
		backend = s.traced
	}
	s.srv = server.New(backend)
	s.srv.UseRegistry(reg)
	s.srv.SubBuf = d.subBuf
	s.srv.WriteTimeout = 30 * time.Second // as trajserver sets it
	if cfg.wal {
		mode := cfg.ackMode
		if mode == "" {
			mode = repl.AckPrimary
		}
		s.primary = repl.NewPrimary(s.durable, repl.Options{Mode: mode, MaxLag: d.replMaxLag, Metrics: reg})
		s.srv.Repl = s.primary
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	go func() { s.serveErr <- s.srv.Serve(ln) }()

	if cfg.replicate {
		freg := metrics.NewRegistry()
		fopts := opts
		fopts.NewCompressor, fopts.Metrics = factory, freg
		var ffs fault.FS = fault.NewFS(fault.OS, fault.NewSet(freg))
		if tr != nil {
			s.replFS = &timingFS{FS: ffs, tr: tr, write: spanReplWrite, sync: spanReplSync}
			ffs = s.replFS
		}
		s.fdurable, err = wal.OpenDurableFS(ffs, filepath.Join(s.dir, "follower.wal"), fopts)
		if err != nil {
			return err
		}
		s.fdurable.SetSyncEvery(cfg.walSync)
		s.follower = repl.StartFollower(s.fdurable, s.addr, repl.FollowerOptions{Metrics: freg})
		// Catch-up is part of set-up: wait until the primary streams to it.
		// The wait yields instead of sleeping: a runtime timer would round
		// it up to a millisecond.
		attached := reg.Gauge("repl_followers")
		deadline := time.Now().Add(10 * time.Second)
		for attached.Value() < 1 {
			if time.Now().After(deadline) {
				return fmt.Errorf("follower did not attach: %v", s.follower.Err())
			}
			runtime.Gosched()
		}
	}
	return nil
}

// waitFollower waits until the follower's log holds target bytes.
func (s *stack) waitFollower(target int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for s.fdurable.AckedOffset() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at offset %d of %d: %v", s.fdurable.AckedOffset(), target, s.follower.Err())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close tears the stack down and removes its directory.
func (s *stack) close() {
	if s.primary != nil {
		s.primary.Stop()
	}
	if s.follower != nil {
		s.follower.Stop()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx) // a stuck handler is closed when ctx expires
		cancel()
		<-s.serveErr
	}
	if s.durable != nil {
		_ = s.durable.Close() // teardown: the run's checks are already done
	}
	if s.fdurable != nil {
		_ = s.fdurable.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// client is one benchmark connection speaking the line protocol.
type client struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// line reads one reply line without its newline. The slice is valid until
// the next read.
func (c *client) line() ([]byte, error) {
	b, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// remoteErr is an ERR reply from the server.
type remoteErr string

func (e remoteErr) Error() string { return string(e) }

// do writes a request and reads its one-line reply, which must start "OK".
func (c *client) do(req []byte) (string, error) {
	if _, err := c.c.Write(req); err != nil {
		return "", err
	}
	b, err := c.line()
	if err != nil {
		return "", err
	}
	if !bytes.HasPrefix(b, []byte("OK")) {
		return "", remoteErr(fmt.Sprintf("%s → %s", bytes.TrimSpace(req[:min(len(req), 60)]), b))
	}
	return string(b), nil
}

// lines writes a request and calls fn on each reply line up to END.
func (c *client) lines(req []byte, fn func([]byte) error) error {
	if _, err := c.c.Write(req); err != nil {
		return err
	}
	for {
		b, err := c.line()
		if err != nil {
			return err
		}
		if string(b) == "END" {
			return nil
		}
		if bytes.HasPrefix(b, []byte("ERR")) {
			return remoteErr(fmt.Sprintf("%s → %s", bytes.TrimSpace(req), b))
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

func (c *client) close() { _ = c.c.Close() }
