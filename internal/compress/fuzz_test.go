package compress

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/trajectory"
)

// FuzzParse checks the spec grammar never panics, that accepted specs
// yield runnable algorithms, and that a spec with an online form means the
// same in both forms: ParseOnline accepts exactly those specs, and its
// engine reproduces the batch output.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"tdtr:30", "opwsp:30:5", "sw:10:8", "uniform:3", "", "x", "tdtr:",
		"tdtr:1e309", "opwsp:30:5:7", ":::", "tdtr:-0", "sw:1:1e18",
		"opwtr:NaN", "dr:Inf", "opwsp:30:NaN",
	} {
		f.Add(seed)
	}
	p := evenLine(12)
	f.Fuzz(func(t *testing.T, spec string) {
		alg, err := Parse(spec)
		newEngine, onlineErr := ParseOnline(spec)
		entry, _ := Lookup(spec)
		if wantOnline := err == nil && entry.Online != nil; (onlineErr == nil) != wantOnline {
			t.Fatalf("spec %q: ParseOnline error %v, batch error %v", spec, onlineErr, err)
		}
		if err != nil {
			return
		}
		if newEngine != nil {
			if online := runEngine(p, newEngine()); !reflect.DeepEqual(online, alg.Compress(p)) {
				t.Fatalf("spec %q: online output differs from batch", spec)
			}
		}
		a := alg.Compress(p)
		if err := a.Validate(); err != nil {
			t.Fatalf("spec %q produced invalid output: %v", spec, err)
		}
		// Weak simplifications (cisedw) synthesize joints and are exempt
		// from the subsequence contract — by declaration, not silently.
		if !IsWeak(alg) && !a.IsVertexSubsetOf(p) {
			t.Fatalf("spec %q output not a subsequence", spec)
		}
	})
}

// FuzzCompressInvariants feeds fuzz-shaped trajectories through the
// threshold algorithms and checks the universal invariants.
func FuzzCompressInvariants(f *testing.F) {
	f.Add(int64(1), uint8(20), float64(30))
	f.Add(int64(7), uint8(3), float64(0))
	f.Add(int64(9), uint8(200), float64(1e6))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64) {
		if !(eps >= 0) || math.IsInf(eps, 0) || n < 3 {
			return
		}
		p := fuzzTrack(seed, int(n))
		for _, alg := range []Algorithm{
			DouglasPeucker{Threshold: eps},
			TDTR{Threshold: eps},
			NOPW{Threshold: eps},
			OPWTR{Threshold: eps},
			BottomUpTR{Threshold: eps},
			OPERB{Threshold: eps},
			CISEDS{Threshold: eps},
		} {
			a := alg.Compress(p)
			if err := a.Validate(); err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if !a.IsVertexSubsetOf(p) {
				t.Fatalf("%s: not a subsequence", alg.Name())
			}
			if a[0] != p[0] || a[a.Len()-1] != p[p.Len()-1] {
				t.Fatalf("%s: endpoints dropped", alg.Name())
			}
		}
	})
}

// fuzzTrack derives a deterministic pseudo-random trajectory from a seed
// using a simple LCG (keeping the fuzz target self-contained).
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
