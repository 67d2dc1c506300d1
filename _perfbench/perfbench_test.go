package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	encode := func(seed int64) []byte {
		var b bytes.Buffer
		live, err := newLiveInputs(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		live.encode(&b)
		newBulkInputs(seed).encode(&b, 200)
		q, err := newQueryInputs(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		q.encode(&b)
		return b.Bytes()
	}
	a, b := encode(7), encode(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different inputs")
	}
	if bytes.Equal(a, encode(8)) {
		t.Fatal("different seeds gave identical inputs")
	}
}

func TestBulkParkedShareIsExact(t *testing.T) {
	in := newBulkInputs(3)
	parked := 0
	for j, p := range in.parked {
		if !p {
			continue
		}
		parked++
		// A parked object stays near its spot however long it is sampled.
		for k := 0; k < 5000; k++ {
			if d := in.sample(j, k).Pos().Dist(in.centers[j]); d > 10*parkedJitter {
				t.Fatalf("parked object %d sample %d is %.1f m from its spot", j, k, d)
			}
		}
	}
	if parked*parkedEvery != bulkObjects {
		t.Fatalf("%d of %d objects parked, want exactly 1 in %d", parked, bulkObjects, parkedEvery)
	}
}

func TestBulkSamplesIncreaseInTime(t *testing.T) {
	in := newBulkInputs(5)
	for j := range in.ids {
		for k := 1; k < 3*bulkTripLen; k++ {
			if in.sample(j, k).T <= in.sample(j, k-1).T {
				t.Fatalf("object %d: sample %d does not follow sample %d", j, k, k-1)
			}
		}
	}
}

func TestPercentilesAreOrderStatistics(t *testing.T) {
	var d dist
	for _, x := range rand.New(rand.NewSource(1)).Perm(10) {
		d.add(float64(x + 1)) // 1..10, shuffled
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10}} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := d.p99(); got != 0 {
		t.Errorf("p99 of 10 samples = %v, want 0 (not reported)", got)
	}

	var big dist
	for i := 1; i <= 2500; i++ {
		big.add(float64(i))
	}
	if got := big.p99(); got != 2475 {
		t.Errorf("p99 of 1..2500 = %v, want 2475", got)
	}
	// Blocks are 1..1000 and 1001..2500: p99s 990 and 2485, lower median 990.
	if got := big.blockP99(); got != 990 {
		t.Errorf("blockP99 = %v, want 990", got)
	}
	if got := big.pct(50); got != 1250 {
		t.Errorf("pct(50) after blockP99 = %v, want 1250", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{id: 0, parent: noSpan, start: 0, end: 100},
		{id: 1, parent: 0, start: 10, end: 40},
		{id: 2, parent: 0, start: 30, end: 60},  // overlaps 1
		{id: 3, parent: 0, start: 90, end: 120}, // sticks out of 0
		{id: 4, parent: 1, start: 15, end: 20},
	}
	self := selfTimes(spans, 5)
	// 0 is covered on [10,60] and [90,100]: 100 - 60.
	for id, want := range []int64{40, 25, 30, 30, 5} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

func TestServerSelfPlusBackendIsTheRoundTrip(t *testing.T) {
	tr := newTracer(epoch)
	a := tr.open(kAppend)
	b := tr.open(kRangeHot)
	tr.record(span{id: a.root, parent: noSpan, req: a.req, name: spanClient, start: 1000, end: 5000})
	tr.record(span{id: tr.newID(), parent: a.root, req: a.req, name: spanBackend, start: 1500, end: 2500})
	tr.record(span{id: b.root, parent: noSpan, req: b.req, name: spanClient, start: 6000, end: 7000})
	tr.record(span{id: tr.newID(), parent: b.root, req: b.req, name: spanBackend, start: 5900, end: 6500}) // starts before its request
	l := tr.analyze()
	if got := l.serverSelf[kAppend].pct(50) + l.backend[kAppend].pct(50); got != l.rtt[kAppend].pct(50) {
		t.Errorf("server self + backend = %v us, round trip %v us", got, l.rtt[kAppend].pct(50))
	}
	if l.broken != 1 {
		t.Errorf("broken = %d, want 1 (the backend span outside its round trip)", l.broken)
	}
}

func TestParseDefaults(t *testing.T) {
	usage := `Usage of trajserver:
  -cell float
    	spatial index cell size in metres (default 1000)
  -compress string
    	online compression spec (none, nopw:D) (default "opwtr:30")
  -index string
    	spatiotemporal index: grid or rtree (default "grid")
  -repl-max-lag uint
    	shed lag (0 = never) (default 4096)
  -seal-block int
    	target points per sealed block (0 = default)
  -shards int
    	store shards (0 = max(8, 2×GOMAXPROCS))
  -sub-buf int
    	ring capacity (0 = default 256)
  -wal-sync int
    	records between WAL fsyncs (0 = fsync every append) (default 64)
`
	d, err := parseDefaults(usage)
	if err != nil {
		t.Fatal(err)
	}
	want := defaults{compress: "opwtr:30", cell: 1000, index: "grid", walSync: 64, replMaxLag: 4096}
	if d != want {
		t.Fatalf("parsed %+v, want %+v", d, want)
	}
	if _, err := parseDefaults("Usage of trajserver:\n"); err == nil {
		t.Fatal("usage without the flags parsed without error")
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
