package stream

import (
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// fuzzTrack derives a deterministic pseudo-random trajectory from a seed
// using a simple LCG, mirroring internal/compress's fuzz target.
func fuzzTrack(seed int64, n int) trajectory.Trajectory {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	p := make(trajectory.Trajectory, n)
	t, x, y := 0.0, 0.0, 0.0
	for i := 0; i < n; i++ {
		p[i] = trajectory.S(t, x, y)
		t += 0.1 + next()*20
		x += (next() - 0.5) * 500
		y += (next() - 0.5) * 500
	}
	return p
}

// refPerp, refSED and refSP are the index-form halting conditions of the
// opening-window family, as the batch loop evaluated them.
func refPerp(d float64) refViolation {
	return func(p trajectory.Trajectory, anchor, float, i int) bool {
		return geo.Seg(p[anchor].Pos(), p[float].Pos()).PerpDist(p[i].Pos()) > d
	}
}

func refSED(d float64) refViolation {
	return func(p trajectory.Trajectory, anchor, float, i int) bool {
		return sed.Distance(p[i], p[anchor], p[float]) > d
	}
}

func refSP(d, v float64) refViolation {
	return func(p trajectory.Trajectory, anchor, float, i int) bool {
		return refSED(d)(p, anchor, float, i) || math.Abs(p.SegmentSpeed(i)-p.SegmentSpeed(i-1)) > v
	}
}

// FuzzOPWSPStreamMatchesBatch drives the opening-window engine over
// fuzz-shaped trajectories and checks it against the reference batch loop:
//
//   - for every halting condition (perpendicular, synchronized,
//     spatiotemporal), both break strategies, both tail policies and with
//     and without the fuzzed window cap, the stream wrapper over the engine
//     must equal the reference output bit for bit, and so must the batch
//     algorithm (NOPW, BOPW, OPWTR or OPWSP, where one has that
//     configuration);
//   - bounded window: forced cuts may retain extra points, but the output
//     must stay a valid vertex subsequence with both endpoints, and no two
//     consecutive retained points may span more than maxWindow input
//     samples (the memory bound the cap exists to enforce).
func FuzzOPWSPStreamMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), float64(50), float64(5), uint8(0))
	f.Add(int64(7), uint8(3), float64(0), float64(1), uint8(3))
	f.Add(int64(11), uint8(200), float64(30), float64(15), uint8(4))
	f.Add(int64(42), uint8(120), float64(1e6), float64(0.5), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, dist, speed float64, win uint8) {
		if n < 3 || !(dist >= 0) || math.IsInf(dist, 0) || !(speed > 0) || math.IsInf(speed, 0) {
			return
		}
		p := fuzzTrack(seed, int(n))
		// Clamp the fuzzed cap into the legal range [3, 64].
		maxWindow := 3 + int(win)%62

		for _, strategy := range []compress.BreakStrategy{compress.BreakAtViolation, compress.BreakBefore} {
			for _, dropTail := range []bool{false, true} {
				for _, c := range []struct {
					name   string
					engine compress.Violation
					ref    refViolation
					batch  compress.Algorithm // nil: no batch type has this configuration
				}{
					{"perp", compress.PerpViolation(dist), refPerp(dist),
						map[compress.BreakStrategy]compress.Algorithm{
							compress.BreakAtViolation: compress.NOPW{Threshold: dist, DropTail: dropTail},
							compress.BreakBefore:      compress.BOPW{Threshold: dist, DropTail: dropTail},
						}[strategy]},
					{"sed", compress.SEDViolation(dist), refSED(dist),
						compress.OPWTR{Threshold: dist, Strategy: strategy, DropTail: dropTail}},
					{"sp", compress.SPViolation(dist, speed), refSP(dist, speed),
						map[compress.BreakStrategy]compress.Algorithm{
							compress.BreakAtViolation: compress.OPWSP{DistThreshold: dist, SpeedThreshold: speed, DropTail: dropTail},
						}[strategy]},
				} {
					for _, w := range []int{0, maxWindow} {
						want := refOpeningWindow(p, strategy, dropTail, w, c.ref)
						got, err := Collect(wrap(compress.NewOPWEngine(c.engine, strategy, dropTail, w)), p)
						if err != nil {
							t.Fatal(err)
						}
						if !sameTrajectory(got, want) {
							t.Fatalf("%s/%v/dropTail=%v/cap %d: engine %d points, reference %d", c.name, strategy, dropTail, w, got.Len(), want.Len())
						}
					}
					if c.batch != nil && !sameTrajectory(c.batch.Compress(p), refOpeningWindow(p, strategy, dropTail, 0, c.ref)) {
						t.Fatalf("%s diverges from the reference", c.batch.Name())
					}
				}
			}
		}

		bounded, err := Collect(NewOPWSP(dist, speed, maxWindow), p)
		if err != nil {
			t.Fatal(err)
		}
		if err := bounded.Validate(); err != nil {
			t.Fatalf("bounded output invalid: %v", err)
		}
		if !bounded.IsVertexSubsetOf(p) {
			t.Fatal("bounded output is not a vertex subsequence of the input")
		}
		if bounded[0] != p[0] || bounded[bounded.Len()-1] != p[p.Len()-1] {
			t.Fatal("bounded output dropped an endpoint")
		}
		// Forced cuts must actually bound the buffered window: consecutive
		// retained points can be at most maxWindow input samples apart.
		idx := 0
		prev := -1
		for _, s := range bounded {
			for p[idx] != s {
				idx++
			}
			if prev >= 0 && idx-prev > maxWindow {
				t.Fatalf("retained points %d and %d are %d input samples apart, window cap %d", prev, idx, idx-prev, maxWindow)
			}
			prev = idx
		}
	})
}

// FuzzOPERBStreamMatchesBatch checks the online OPERB compressor (the
// batch algorithm runs the same engine): the emitted stream must stay a
// vertex subsequence with both endpoints, honour the bounded-error
// invariant — every discarded point within ε (segment distance, plus float
// slack) of the output segment covering it — and reject out-of-order
// input.
func FuzzOPERBStreamMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), float64(50))
	f.Add(int64(7), uint8(3), float64(0))
	f.Add(int64(11), uint8(200), float64(30))
	f.Add(int64(42), uint8(120), float64(1e6))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64) {
		if n < 3 || !(eps >= 0) || math.IsInf(eps, 0) {
			return
		}
		p := fuzzTrack(seed, int(n))
		c := NewOPERB(eps)
		got, err := Collect(c, p)
		if err != nil {
			t.Fatal(err)
		}
		checkSubsequence(t, "OPERB", p, got)
		checkBound(t, "OPERB", p, got, onePassTol(eps), segDist)
		checkRejectsOutOfOrder(t, "OPERB", c, p)
	})
}

// FuzzCISEDStreamMatchesBatch is the same target for both CISED variants,
// with the bounded-error invariant measured in the synchronous Euclidean
// distance. The weak variant synthesizes its joints, so instead of the
// subsequence property it is pinned to never invent timestamps.
func FuzzCISEDStreamMatchesBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), float64(50), false)
	f.Add(int64(7), uint8(3), float64(0), true)
	f.Add(int64(11), uint8(200), float64(30), true)
	f.Add(int64(42), uint8(120), float64(1e6), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64, weak bool) {
		if n < 3 || !(eps >= 0) || math.IsInf(eps, 0) {
			return
		}
		p := fuzzTrack(seed, int(n))
		c := NewCISEDS(eps)
		if weak {
			c = NewCISEDW(eps)
		}
		got, err := Collect(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if weak {
			times := make(map[float64]bool, p.Len())
			for _, s := range p {
				times[s.T] = true
			}
			for _, s := range got {
				if !times[s.T] {
					t.Fatalf("CISED-W invented timestamp %v", s.T)
				}
			}
		} else {
			checkSubsequence(t, "CISED-S", p, got)
		}
		checkBound(t, "CISED", p, got, onePassTol(eps), sed.Distance)
		checkRejectsOutOfOrder(t, "CISED", c, p)
	})
}
