// Command perfbench is the repository's benchmark. It assembles the
// trajserver stack in-process from its public constructors (store, wal,
// repl, server), drives it over loopback TCP with at most two client
// connections, checks the answers, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 a second, traced stack runs the same workload and the
// metrics are the per-layer ones, split from spans recorded around the
// server.Backend, the compressor factory and the WAL's fault.FS. Spans are
// written to <out>/spans-<workload>-seed<n>.tsv.gz.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	live-ingest      open loop, 10,000 APPEND/s on one connection, the other
//	                 holding SUBSCRIBE *; WAL on with trajserver's default
//	                 -wal-sync
//	bulk-replicated  closed loop, two connections sending MAPPEND×64 over a
//	                 256-object fleet, one object in eight parked, a fixed
//	                 volume sized from -seconds; -wal-sync 0, -repl-ack
//	                 follower, an in-process follower with its own WAL
//	query-mix        closed-loop QUERYRANGE/NEAREST probes over hot and
//	                 sealed (cold) windows beside 1,000 APPEND/s; memory only,
//	                 -seal-eps 10
//
// Settings no workload names (compressor, shards, index, cell size, ring
// size, -wal-sync on live-ingest) are trajserver's defaults, read from
// `trajserver -h` at run time. Any failed correctness check exits 1.
//
// Run it from the repository root with _perfbench/run.sh, which builds it.
// The directory name starts with "_" so the repository's own Go tooling and
// linter skip it: it is a module of its own.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics; every workload reports each one.
// request_p50_us is the round trip of the workload's principal request:
// APPEND timed from its due time on live-ingest, MAPPEND on
// bulk-replicated, a QUERYRANGE or NEAREST probe on query-mix. Tail
// latencies are per-layer entries: on a shared host they follow the host's
// noise more than the program (see CHANGES.md for measured spreads).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_pts_per_s", "pts/s"},
	{"request_p50_us", "us"},
	{"retained_pct", "%"},
	{"sed_alpha_m", "m"},
	{"heap_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run. Every workload
// reports each one; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"append_p50_us", "us"}, {"append_p99_us", "us"},
	{"feed_p50_us", "us"}, {"feed_p99_us", "us"},
	{"batch_p50_us", "us"}, {"batch_p99_us", "us"},
	{"range_p50_us", "us"}, {"range_p99_us", "us"},
	{"knn_p50_us", "us"}, {"knn_p99_us", "us"},
	{"failed_frac", "ratio"},
	{"server.append_self_us.p50", "us"}, {"server.append_self_us.p99", "us"},
	{"server.mappend_self_us.p50", "us"},
	{"server.query_self_us.p50", "us"},
	{"wal.append_us.p50", "us"}, {"wal.append_us.p99", "us"},
	{"wal.append_self_us.p50", "us"},
	{"wal.batch_us.p50", "us"}, {"wal.batch_us.p99", "us"},
	{"wal.sync_us.p50", "us"}, {"wal.sync_us.p99", "us"},
	{"wal.write_us.p50", "us"},
	{"wal.syncs", "count"}, {"wal.syncs_per_ack", "ratio"}, {"wal.bytes_per_pt", "B/pt"},
	{"store.range_hot_us.p50", "us"}, {"store.range_hot_us.p99", "us"},
	{"store.range_cold_us.p50", "us"}, {"store.range_cold_us.p99", "us"},
	{"store.knn_hot_us.p50", "us"}, {"store.knn_hot_us.p99", "us"},
	{"store.knn_cold_us.p50", "us"}, {"store.knn_cold_us.p99", "us"},
	{"store.range_pts", "pts"},
	{"store.append_us.p50", "us"},
	{"store.retained", "count"}, {"store.objects", "count"},
	{"stream.push_ns.mean", "ns"}, {"stream.push_ns.p99", "ns"},
	{"stream.window_max", "count"},
	{"stream.points_in", "count"}, {"stream.points_out", "count"},
	{"repl.follower_sync_us.p50", "us"}, {"repl.follower_sync_us.p99", "us"},
	{"repl.follower_syncs", "count"},
	{"repl.lag_bytes.max", "B"},
	{"bus.fanout_us.p50", "us"}, {"bus.fanout_us.p99", "us"},
	{"bus.delivered", "count"}, {"bus.dropped", "count"},
	{"seal.seal_s", "s"}, {"seal.sealed_pts", "count"}, {"seal.footprint_ratio", "ratio"},
	{"gen.late_p99_us", "us"},
	{"trace.overhead_pct", "%"},
}

// fromUntraced are the per-layer entries a traced run takes from its
// untraced twin: the workload-specific client latencies, which tracing
// would skew.
var fromUntraced = []string{
	"append_p50_us", "append_p99_us", "feed_p50_us", "feed_p99_us",
	"batch_p50_us", "batch_p99_us", "range_p50_us", "range_p99_us",
	"knn_p50_us", "knn_p99_us", "failed_frac",
}

// setups is how many timed set-ups a run makes, after one untimed warm-up;
// setup_s is their median.
const setups = 5

// lateBound is the open-loop lag bound: a run whose sender ran later than
// this at p99 measured the benchmark, not the server, and is invalid.
const lateBound = 50 * time.Millisecond

// env is what every phase of a run shares.
type env struct {
	root, out, tmp string
	seconds        int
	seed           int64
	defaults       defaults
}

// phase is the outcome of one stack's run of a workload.
type phase struct {
	metrics   map[string]float64 // end-to-end metrics, or per-layer when traced
	attempted int
	failed    int
	checks    []string // failed correctness checks
	report    []string // human-readable lines
	headline  dist     // client round trips whose medians the trace overhead compares
}

func (p *phase) check(ok bool, format string, args ...any) {
	if !ok {
		p.checks = append(p.checks, fmt.Sprintf(format, args...))
	}
}

func (p *phase) say(format string, args ...any) {
	p.report = append(p.report, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(e *env, tr *tracer, nSetups int) (*phase, error){
	"live-ingest":     runLive,
	"bulk-replicated": runBulk,
	"query-mix":       runQuery,
}

// result is what a run saves beside its JSON line.
type result struct {
	Host      fingerprint        `json:"host"`
	Commit    string             `json:"commit"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// fingerprint identifies the host a result was measured on.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func hostFingerprint() fingerprint {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fingerprint{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpu, Go: runtime.Version()}
}

// sourceHash stands in for the commit: the benchmark's checkout is not a
// git repository, so it hashes the source files it was built from.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(name, ".go") || name == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], err
}

func main() {
	var (
		workload   = flag.String("workload", "", "live-ingest, bulk-replicated or query-mix")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Int("seconds", 10, "timed phase length in seconds")
		trace      = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		root       = flag.String("root", ".", "repository checkout")
		out        = flag.String("out", ".bench_build/perfbench", "directory for results, spans and scratch files")
		trajserver = flag.String("trajserver", "", "trajserver binary whose -h output gives the defaults")
		baseline   = flag.String("baseline", "", "earlier result file to compare with; refused if measured on another host")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *root, *out, *trajserver, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(workload string, seed int64, seconds, trace int, root, out, trajserver, baseline string) error {
	runWorkload, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("bad -seconds %d or -trace %d", seconds, trace)
	}
	host := hostFingerprint()
	var base *result
	if baseline != "" {
		b, err := readResult(baseline)
		if err != nil {
			return err
		}
		if b.Host != host {
			return fmt.Errorf("baseline %s was measured on another host: %+v, this host is %+v", baseline, b.Host, host)
		}
		base = b
	}
	commit, err := sourceHash(root)
	if err != nil {
		return err
	}
	e := &env{root: root, out: out, tmp: filepath.Join(out, "tmp"), seconds: seconds, seed: seed}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return err
	}
	if e.defaults, err = readDefaults(trajserver); err != nil {
		return err
	}
	d := e.defaults
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n", host.GOMAXPROCS, host.NProc, host.CPU, host.Go, commit)
	fmt.Printf("trajserver defaults: -compress %s -cell %g -index %s -shards %d -sub-buf %d -wal-sync %d -seal-block %d -repl-max-lag %d\n",
		d.compress, d.cell, d.index, d.shards, d.subBuf, d.walSync, d.sealBlock, d.replMaxLag)

	var res *phase
	if trace == 0 {
		if res, err = runWorkload(e, nil, setups); err != nil {
			return err
		}
	} else {
		plain, err := runWorkload(e, nil, 1)
		if err != nil {
			return err
		}
		tr := newTracer(epoch)
		if res, err = runWorkload(e, tr, 1); err != nil {
			return err
		}
		// Client-side latencies come from the untraced run: tracing skews
		// the traced run's own.
		for _, name := range fromUntraced {
			if v, ok := plain.metrics[name]; ok {
				res.metrics[name] = v
			}
		}
		res.metrics["trace.overhead_pct"] = 100 * (res.headline.pct(50)/plain.headline.pct(50) - 1)
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.checks = append(plain.checks, res.checks...)
		res.say("trace overhead: median round trip %.2f us traced vs %.2f us untraced", res.headline.pct(50), plain.headline.pct(50))
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.tsv.gz", workload, seed))
		if err := tr.write(spans); err != nil {
			return err
		}
		res.say("spans: %d written to %s", len(tr.spans), spans)
	}
	for _, line := range res.report {
		fmt.Println(line)
	}

	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	saved := make(map[string]float64, len(defs))
	for _, m := range defs {
		v, ok := res.metrics[m.name]
		if !ok && trace == 0 {
			return fmt.Errorf("workload %s did not measure %s", workload, m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		saved[m.name] = v
		fmt.Printf("%-28s %14.4f %s\n", m.name, v, m.unit)
	}
	for _, c := range res.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	correct := len(res.checks) == 0
	r := &result{Host: host, Commit: commit, Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: saved}
	if err := saveResult(filepath.Join(out, "results"), r); err != nil {
		return err
	}
	if base != nil {
		compareBaseline(base, r, defs)
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
	return nil
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &r, nil
}

func saveResult(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func compareBaseline(base, r *result, defs []metricDef) {
	fmt.Printf("vs baseline (%s, seed %d):\n", base.Commit, base.Seed)
	names := make([]string, 0, len(defs))
	for _, m := range defs {
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, name := range names {
		old, ok := base.Metrics[name]
		if !ok || old == 0 {
			continue
		}
		fmt.Printf("  %-28s %14.4f → %14.4f (%+.1f%%)\n", name, old, r.Metrics[name], 100*(r.Metrics[name]/old-1))
	}
}

// epoch is the origin of every timestamp the benchmark takes.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }
