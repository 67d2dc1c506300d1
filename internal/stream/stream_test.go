package stream

import (
	"context"
	"errors"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpsgen"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

func testTrips() []trajectory.Trajectory {
	g := gpsgen.New(11, gpsgen.Config{})
	return []trajectory.Trajectory{
		g.Trip(gpsgen.Urban, 1200),
		g.Trip(gpsgen.Mixed, 1800),
		g.Trip(gpsgen.Rural, 900),
	}
}

func sameTrajectory(a, b trajectory.Trajectory) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The online opening-window compressors keep the ε bound of their halting
// condition against every output segment, return a vertex subsequence with
// both endpoints, and reject out-of-order input. (Stream equals batch by
// construction: both drive the same compress.OPWEngine; the engine is
// checked against the reference batch loop in FuzzOPWSPStreamMatchesBatch.)
func TestOnlineOPWTRMatchesBatch(t *testing.T) {
	for _, p := range testTrips() {
		for _, eps := range []float64{20, 50, 100} {
			checkOnline(t, "OPW-TR", NewOPWTR(eps, 0), p, eps, sed.Distance)
		}
	}
}

func TestOnlineOPWSPMatchesBatch(t *testing.T) {
	for _, p := range testTrips() {
		checkOnline(t, "OPW-SP", NewOPWSP(50, 5, 0), p, 50, sed.Distance)
	}
}

func TestOnlineNOPWMatchesBatch(t *testing.T) {
	for _, p := range testTrips() {
		checkOnline(t, "NOPW", NewNOPW(50, 0), p, 50, lineDist)
	}
}

// checkOnline runs c over p and checks the subsequence property, the ε
// bound under dist and out-of-order rejection.
func checkOnline(t *testing.T, name string, c Compressor, p trajectory.Trajectory, eps float64, dist func(s, a, b trajectory.Sample) float64) {
	t.Helper()
	got, err := Collect(c, p)
	if err != nil {
		t.Fatal(err)
	}
	checkSubsequence(t, name, p, got)
	checkBound(t, name, p, got, eps, dist)
	checkRejectsOutOfOrder(t, name, c, p)
}

// Dead reckoning equals its reference batch loop for every ε > 0, online
// and batch alike.
func TestOnlineDeadReckoningMatchesBatch(t *testing.T) {
	for _, p := range append(testTrips(), fuzzTrack(3, 250), fuzzTrack(9, 250)) {
		for _, eps := range []float64{1e-6, 5, 50} {
			want := refDeadReckoning(p, eps)
			got, err := Collect(NewDeadReckoning(eps), p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTrajectory(got, want) {
				t.Fatalf("DeadReckoning ε=%v: online %d points, reference %d points", eps, got.Len(), want.Len())
			}
			if batch := (compress.DeadReckoning{Threshold: eps}).Compress(p); !sameTrajectory(batch, want) {
				t.Fatalf("DeadReckoning ε=%v: batch %d points, reference %d points", eps, batch.Len(), want.Len())
			}
		}
	}
}

// At ε = 0 every tested sample off its prediction is retained, and the
// sample after each retained one only fixes the new velocity and is never
// tested. On a track with no exactly predictable sample the output is
// therefore every other sample plus the last one. (The reference loop
// tested that sample too, and kept it whenever the extrapolation rounded
// one ulp off.)
func TestDeadReckoningZeroEpsilon(t *testing.T) {
	p := fuzzTrack(5, 101)
	var want trajectory.Trajectory
	for i := 0; i < p.Len(); i += 2 {
		want = append(want, p[i])
	}
	got, err := Collect(NewDeadReckoning(0), p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTrajectory(got, want) {
		t.Fatalf("online: %d points, want %d", got.Len(), want.Len())
	}
	if batch := (compress.DeadReckoning{Threshold: 0}).Compress(p); !sameTrajectory(batch, want) {
		t.Fatalf("batch: %d points, want %d", batch.Len(), want.Len())
	}
	even := p[:100]
	got, err = Collect(NewDeadReckoning(0), even)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(want[:50:50], even[99]); !sameTrajectory(got, want) {
		t.Fatalf("even length: %d points, want %d", got.Len(), want.Len())
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	c := NewOPWTR(10, 0)
	if _, err := c.Push(trajectory.S(5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push(trajectory.S(5, 1, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("duplicate timestamp: got %v", err)
	}
	if _, err := c.Push(trajectory.S(4, 1, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("decreasing timestamp: got %v", err)
	}
	d := NewDeadReckoning(10)
	if _, err := d.Push(trajectory.S(5, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Push(trajectory.S(5, 1, 1)); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("dead reckoning duplicate timestamp: got %v", err)
	}
}

// A bounded window must cut eventually but still produce a valid subsequence
// within the synchronized error guarantee.
func TestBoundedWindow(t *testing.T) {
	p := testTrips()[0]
	const cap = 8
	got, err := Collect(NewOPWTR(1e12, cap), p) // huge threshold: only the cap cuts
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("bounded-window output invalid: %v", err)
	}
	if !got.IsVertexSubsetOf(p) {
		t.Fatal("bounded-window output not a subsequence")
	}
	// With the cap, roughly one point per cap-1 inputs must be retained.
	if got.Len() < p.Len()/cap {
		t.Errorf("bounded window kept only %d of %d points", got.Len(), p.Len())
	}
	unbounded := compress.OPWTR{Threshold: 1e12}.Compress(p)
	if got.Len() <= unbounded.Len() {
		t.Errorf("cap had no effect: %d vs %d points", got.Len(), unbounded.Len())
	}
}

func TestCompressorReusableAfterFlush(t *testing.T) {
	c := NewOPWTR(50, 0)
	p := testTrips()[0]
	first, err := Collect(c, p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Collect(c, p) // same compressor, fresh stream
	if err != nil {
		t.Fatal(err)
	}
	if !sameTrajectory(first, second) {
		t.Error("compressor state leaked across Flush")
	}
}

func TestFlushSingleSample(t *testing.T) {
	c := NewOPWTR(50, 0)
	emitted, err := c.Push(trajectory.S(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 1 {
		t.Fatalf("first sample not emitted immediately: %v", emitted)
	}
	if out := c.Flush(); len(out) != 0 {
		t.Errorf("flush re-emitted the only sample: %v", out)
	}
}

func TestValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewOPWTR(-1, 0) },
		func() { NewOPWSP(10, 0, 0) },
		func() { NewNOPW(-1, 0) },
		func() { NewDeadReckoning(-1) },
		func() { NewOPWTR(10, 2) }, // window cap too small
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPipeline(t *testing.T) {
	p := testTrips()[0]
	in := make(chan trajectory.Sample)
	out := make(chan trajectory.Sample)
	errc := make(chan error, 1)
	go func() {
		errc <- Pipeline(context.Background(), NewOPWTR(50, 0), in, out)
	}()
	go func() {
		for _, s := range p {
			in <- s
		}
		close(in)
	}()
	var got trajectory.Trajectory
	for s := range out {
		got = append(got, s)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	want := compress.OPWTR{Threshold: 50}.Compress(p)
	if !sameTrajectory(got, want) {
		t.Errorf("pipeline output %d points, batch %d", got.Len(), want.Len())
	}
}

func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan trajectory.Sample)
	out := make(chan trajectory.Sample)
	errc := make(chan error, 1)
	go func() {
		errc <- Pipeline(ctx, NewOPWTR(50, 0), in, out)
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation returned %v", err)
	}
	if _, ok := <-out; ok {
		t.Error("out channel not closed after cancellation")
	}
}

func TestPipelinePropagatesPushError(t *testing.T) {
	in := make(chan trajectory.Sample, 2)
	out := make(chan trajectory.Sample, 16)
	in <- trajectory.S(5, 0, 0)
	in <- trajectory.S(4, 0, 0) // out of order
	close(in)
	err := Pipeline(context.Background(), NewOPWTR(50, 0), in, out)
	if !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("got %v, want ErrOutOfOrder", err)
	}
}
