package stream

import (
	"errors"
	"testing"

	"repro/internal/compress"
	"repro/internal/geo"
	"repro/internal/trajectory"
)

// Reference oracles: straightforward batch loops for the opening-window
// scheme and for dead reckoning, which the incremental engines of
// internal/compress must reproduce.

// refViolation reports whether intermediate point i violates the halting
// condition for the candidate segment from p[anchor] to p[float].
type refViolation func(p trajectory.Trajectory, anchor, float, i int) bool

// refOpeningWindow is the batch opening-window scheme (paper §2.2 and the
// SPT pseudocode of §3.3). The anchor starts at the first point and the
// float two positions later; on the first violating intermediate point the
// series is cut according to strategy, the cut point becomes the new anchor
// and the window re-opens. Without dropTail the final point is kept. A
// positive maxWindow forces a cut at the point before the float once a
// validated window spans more than maxWindow points.
func refOpeningWindow(p trajectory.Trajectory, strategy compress.BreakStrategy, dropTail bool, maxWindow int, violates refViolation) trajectory.Trajectory {
	if p.Len() < 3 {
		return p
	}
	out := trajectory.Trajectory{p[0]}
	anchor := 0
	e := anchor + 2
	for e < p.Len() {
		cut := -1
		for i := anchor + 1; i < e; i++ {
			if violates(p, anchor, e, i) {
				if strategy == compress.BreakBefore {
					cut = e - 1
				} else {
					cut = i
				}
				break
			}
		}
		if cut < 0 && (maxWindow == 0 || e-anchor+1 <= maxWindow) {
			e++
			continue
		}
		if cut < 0 {
			cut = e - 1
		}
		out = append(out, p[cut])
		anchor = cut
		e = anchor + 2
	}
	if !dropTail {
		if last := p[p.Len()-1]; out[len(out)-1] != last {
			out = append(out, last)
		}
	}
	return out
}

// refDeadReckoning is the batch dead-reckoning loop: the velocity of the
// segment leaving each retained point predicts the following positions, and
// the first one off by more than threshold is retained. Unlike the engine it
// tests the sample right after each cut too, whose prediction is exact up
// to rounding, so the two agree only for threshold > 0.
func refDeadReckoning(p trajectory.Trajectory, threshold float64) trajectory.Trajectory {
	if p.Len() < 3 {
		return p
	}
	out := trajectory.Trajectory{p[0]}
	anchor := 0
	vx := (p[1].X - p[0].X) / (p[1].T - p[0].T)
	vy := (p[1].Y - p[0].Y) / (p[1].T - p[0].T)
	for i := 2; i < p.Len()-1; i++ {
		dt := p[i].T - p[anchor].T
		pred := geo.Pt(p[anchor].X+vx*dt, p[anchor].Y+vy*dt)
		if p[i].Pos().Dist(pred) > threshold {
			out = append(out, p[i])
			anchor = i
			vx = (p[i+1].X - p[i].X) / (p[i+1].T - p[i].T)
			vy = (p[i+1].Y - p[i].Y) / (p[i+1].T - p[i].T)
		}
	}
	return append(out, p[p.Len()-1])
}

// checkRejectsOutOfOrder feeds c the start of p, then a repeated and a
// decreasing timestamp, which the stream wrapper must refuse.
func checkRejectsOutOfOrder(t *testing.T, name string, c Compressor, p trajectory.Trajectory) {
	t.Helper()
	for _, s := range p[:2] {
		if _, err := c.Push(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, s := range []trajectory.Sample{p[1], p[0]} {
		if _, err := c.Push(s); !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("%s: pushing t=%v after t=%v: got %v, want ErrOutOfOrder", name, s.T, p[1].T, err)
		}
	}
	c.Flush()
}

// checkSubsequence asserts a is a valid vertex subsequence of p keeping
// both endpoints.
func checkSubsequence(t *testing.T, name string, p, a trajectory.Trajectory) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !a.IsVertexSubsetOf(p) {
		t.Fatalf("%s: output is not a vertex subsequence of the input", name)
	}
	if a[0] != p[0] || a[a.Len()-1] != p[p.Len()-1] {
		t.Fatalf("%s: output dropped an endpoint", name)
	}
}

// checkBound asserts every input sample lies within tol of the output
// segment covering its timestamp under dist.
func checkBound(t *testing.T, name string, p, a trajectory.Trajectory, tol float64, dist func(s, a, b trajectory.Sample) float64) {
	t.Helper()
	j := 0
	for _, s := range p {
		for j+1 < a.Len()-1 && a[j+1].T < s.T {
			j++
		}
		if d := dist(s, a[j], a[j+1]); d > tol {
			t.Fatalf("%s: sample t=%v is %v from its covering segment, bound %v", name, s.T, d, tol)
		}
	}
}

// segDist and lineDist measure a sample against the segment from a to b:
// clamped to the segment (OPERB's metric) and to its supporting line
// (NOPW's).
func segDist(s, a, b trajectory.Sample) float64 { return geo.Seg(a.Pos(), b.Pos()).Dist(s.Pos()) }

func lineDist(s, a, b trajectory.Sample) float64 {
	return geo.Seg(a.Pos(), b.Pos()).PerpDist(s.Pos())
}
