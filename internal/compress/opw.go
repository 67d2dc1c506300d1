package compress

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/sed"
	"repro/internal/trajectory"
)

// BreakStrategy selects where an opening-window algorithm cuts a segment
// when the halting condition is violated (paper §2.2).
type BreakStrategy int

const (
	// BreakAtViolation cuts at the data point causing the threshold excess —
	// the paper's "Normal Opening Window" strategy (NOPW) and the strategy
	// of the SPT pseudocode.
	BreakAtViolation BreakStrategy = iota
	// BreakBefore cuts at the data point just before the float when the
	// excess occurs — the paper's "Before Opening Window" strategy (BOPW).
	// It yields higher compression at the cost of (much) higher error.
	BreakBefore
)

// String implements fmt.Stringer.
func (b BreakStrategy) String() string {
	switch b {
	case BreakAtViolation:
		return "at-violation"
	case BreakBefore:
		return "before"
	default:
		return fmt.Sprintf("BreakStrategy(%d)", int(b))
	}
}

// Violation reports whether window[i] violates the halting condition for
// the candidate segment from the anchor window[0] to the float
// window[len(window)-1]; 0 < i < len(window)-1.
type Violation func(window []trajectory.Sample, i int) bool

// PerpViolation is the perpendicular-distance halting condition of NOPW and
// BOPW (§2.2).
func PerpViolation(threshold float64) Violation {
	validateDistance("PerpViolation", threshold)
	return func(w []trajectory.Sample, i int) bool {
		return geo.Seg(w[0].Pos(), w[len(w)-1].Pos()).PerpDist(w[i].Pos()) > threshold
	}
}

// SEDViolation is the synchronized-distance halting condition of OPW-TR
// (§3.2).
func SEDViolation(threshold float64) Violation {
	validateDistance("SEDViolation", threshold)
	return func(w []trajectory.Sample, i int) bool {
		return sed.Distance(w[i], w[0], w[len(w)-1]) > threshold
	}
}

// SPViolation is the halting condition of OPW-SP, the SPT pseudocode of
// §3.3: the synchronized distance exceeds dist, or the derived speeds of
// the segments around window[i] differ by more than speed. Both neighbours
// of an intermediate point lie inside the window, so the speed check sees
// the original series.
func SPViolation(dist, speed float64) Violation {
	validateDistance("OPWSP", dist)
	if speed <= 0 {
		panic(fmt.Sprintf("compress: OPWSP: non-positive speed threshold %v", speed))
	}
	return func(w []trajectory.Sample, i int) bool {
		return sed.Distance(w[i], w[0], w[len(w)-1]) > dist || speedJump(w, i) > speed
	}
}

// OPWEngine is the incremental opening-window scheme (paper §2.2 and the
// SPT pseudocode of §3.3), shared by the batch NOPW, BOPW, OPWTR and OPWSP
// and by the online wrappers in internal/stream, so stream output equals
// batch output by construction.
//
// The anchor starts at the first sample and the float two positions later.
// All intermediate samples are tested; on the first violation the series is
// cut according to the BreakStrategy, the cut sample is emitted and becomes
// the new anchor, and the window re-opens. Without violation the float moves
// one up.
//
// Unless dropTail is set, Flush emits the final sample, closing the last
// window — the countermeasure the paper calls for after observing that OW
// algorithms "may lose the last few data points". With dropTail the raw
// behaviour of Figs. 2–3 is reproduced for ablation: the tail after the
// last cut is discarded.
type OPWEngine struct {
	violates  Violation
	strategy  BreakStrategy
	dropTail  bool
	maxWindow int // 0 = unbounded

	// window holds the anchor at index 0 and the newest sample at the end.
	// Floats at indices ≤ fe are validated against all their intermediates,
	// so each Push costs one O(window) scan and the total work matches the
	// batch scheme.
	window []trajectory.Sample
	fe     int
	out    []trajectory.Sample
}

// NewOPWEngine returns an opening-window engine cutting where violates
// fires. maxWindow caps the buffered window: 0 means unbounded; a capped
// window that overflows is cut at the sample before the float, the newest
// point whose segment has been validated.
func NewOPWEngine(violates Violation, strategy BreakStrategy, dropTail bool, maxWindow int) *OPWEngine {
	if maxWindow != 0 && maxWindow < 3 {
		panic(fmt.Sprintf("compress: window cap %d must be 0 (unbounded) or ≥ 3", maxWindow))
	}
	return &OPWEngine{violates: violates, strategy: strategy, dropTail: dropTail, maxWindow: maxWindow}
}

// Pending implements Engine: the buffered window, anchor included.
func (e *OPWEngine) Pending() int { return len(e.window) }

// Push implements Engine; the first sample of a stream is always retained.
func (e *OPWEngine) Push(s trajectory.Sample) []trajectory.Sample {
	e.out = e.out[:0]
	e.window = append(e.window, s)
	if len(e.window) == 1 {
		e.fe = 1
		e.out = append(e.out, s)
		return e.out
	}
	for f := e.fe + 1; f < len(e.window); {
		cut := -1
		for i := 1; i < f; i++ {
			if e.violates(e.window[:f+1], i) {
				cut = i
				if e.strategy == BreakBefore {
					cut = f - 1
				}
				break
			}
		}
		if cut < 0 {
			e.fe = f
			f++
			continue
		}
		e.emit(cut)
		f = 2
	}
	if e.maxWindow > 0 && len(e.window) > e.maxWindow {
		e.emit(len(e.window) - 2)
	}
	return e.out
}

// emit retains window[cut] and re-anchors the window there.
func (e *OPWEngine) emit(cut int) {
	e.out = append(e.out, e.window[cut])
	e.window = append(e.window[:0], e.window[cut:]...)
	e.fe = 1
}

// Flush implements Engine, emitting the final sample unless dropTail is set.
func (e *OPWEngine) Flush() []trajectory.Sample {
	e.out = e.out[:0]
	if n := len(e.window); n > 1 && !e.dropTail {
		e.out = append(e.out, e.window[n-1])
	}
	e.window = e.window[:0]
	e.fe = 0
	return e.out
}

// NOPW is the Normal Opening Window algorithm (§2.2): perpendicular-distance
// halting condition, cutting at the data point causing the threshold excess.
type NOPW struct {
	// Threshold is the perpendicular distance tolerance in metres.
	Threshold float64
	// DropTail reproduces the raw tail-losing behaviour of Fig. 2 when set;
	// by default the final point is retained.
	DropTail bool
}

// Name implements Algorithm.
func (a NOPW) Name() string { return "NOPW" }

// Compress implements Algorithm.
func (a NOPW) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, NewOPWEngine(PerpViolation(a.Threshold), BreakAtViolation, a.DropTail, 0))
}

// BOPW is the Before Opening Window algorithm (§2.2): like NOPW but cutting
// at the data point just before the float when the excess occurs.
type BOPW struct {
	// Threshold is the perpendicular distance tolerance in metres.
	Threshold float64
	// DropTail reproduces the raw tail-losing behaviour of Fig. 3 when set.
	DropTail bool
}

// Name implements Algorithm.
func (a BOPW) Name() string { return "BOPW" }

// Compress implements Algorithm.
func (a BOPW) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, NewOPWEngine(PerpViolation(a.Threshold), BreakBefore, a.DropTail, 0))
}

// OPWTR is the paper's opening-window time-ratio algorithm (§3.2): the
// opening-window scheme with the synchronized (time-ratio) distance as the
// halting condition.
type OPWTR struct {
	// Threshold is the synchronized distance tolerance in metres.
	Threshold float64
	// Strategy selects the break point; the paper uses BreakAtViolation.
	// BreakBefore is provided for the ablation of §5 of DESIGN.md.
	Strategy BreakStrategy
	// DropTail disables the keep-last countermeasure when set.
	DropTail bool
}

// Name implements Algorithm.
func (a OPWTR) Name() string { return "OPW-TR" }

// Compress implements Algorithm.
func (a OPWTR) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, NewOPWEngine(SEDViolation(a.Threshold), a.Strategy, a.DropTail, 0))
}

// OPWSP is the paper's spatiotemporal opening-window algorithm — the
// pseudocode procedure SPT of §3.3. A point is retained when its
// synchronized distance to the candidate segment exceeds DistThreshold or
// when the derived speeds of its adjacent segments differ by more than
// SpeedThreshold.
type OPWSP struct {
	// DistThreshold is the synchronized distance tolerance in metres
	// (max_dist_error in the pseudocode).
	DistThreshold float64
	// SpeedThreshold is the speed-difference tolerance in m/s
	// (max_speed_error in the pseudocode).
	SpeedThreshold float64
	// DropTail disables the keep-last countermeasure when set.
	DropTail bool
}

// Name implements Algorithm.
func (a OPWSP) Name() string { return fmt.Sprintf("OPW-SP(%gm/s)", a.SpeedThreshold) }

// Compress implements Algorithm.
func (a OPWSP) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, NewOPWEngine(SPViolation(a.DistThreshold, a.SpeedThreshold), BreakAtViolation, a.DropTail, 0))
}
