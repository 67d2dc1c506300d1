package compress

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/trajectory"
)

// Uniform keeps every K-th data point (plus the final point), the simplest
// sequential baseline mentioned in §2 ("leaving in every ith data point",
// Tobler 1966). It ignores all relationships between neighbouring points.
type Uniform struct {
	// K is the sampling stride; K = 1 keeps everything. Must be ≥ 1.
	K int
}

// Name implements Algorithm.
func (u Uniform) Name() string { return fmt.Sprintf("Uniform(%d)", u.K) }

// Compress implements Algorithm.
func (u Uniform) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	if u.K < 1 {
		panic(fmt.Sprintf("compress: Uniform: stride %d < 1", u.K))
	}
	if out, ok := small(p); ok {
		return out
	}
	out := make(trajectory.Trajectory, 0, p.Len()/u.K+2)
	for i := 0; i < p.Len(); i += u.K {
		out = append(out, p[i])
	}
	if last := p[p.Len()-1]; out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}

// Radial discards a data point when its Euclidean distance to the last
// retained point is below a threshold — the "distance between two neighbour
// points" heuristic of §2. The final point is always retained.
type Radial struct {
	// Threshold is the minimum spacing in metres between retained points.
	Threshold float64
}

// Name implements Algorithm.
func (r Radial) Name() string { return fmt.Sprintf("Radial(%g)", r.Threshold) }

// Compress implements Algorithm.
func (r Radial) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	validateDistance("Radial", r.Threshold)
	if out, ok := small(p); ok {
		return out
	}
	out := trajectory.Trajectory{p[0]}
	for i := 1; i < p.Len()-1; i++ {
		if p[i].Pos().Dist(out[len(out)-1].Pos()) >= r.Threshold {
			out = append(out, p[i])
		}
	}
	return append(out, p[p.Len()-1])
}

// Angular implements Jenks' angular-change criterion (§2): a point is
// retained when the heading change through it exceeds AngleThreshold or when
// the accumulated distance from the last retained point exceeds
// DistThreshold. It addresses the over-representation of straight lines the
// paper attributes to the simple sequential methods.
type Angular struct {
	// AngleThreshold is the minimum turning angle in radians at a point for
	// it to be retained.
	AngleThreshold float64
	// DistThreshold bounds how much path length may be skipped between
	// retained points; +Inf (or 0, treated as +Inf) disables the bound.
	DistThreshold float64
}

// Name implements Algorithm.
func (a Angular) Name() string { return fmt.Sprintf("Angular(%g)", a.AngleThreshold) }

// Compress implements Algorithm.
func (a Angular) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	if a.AngleThreshold < 0 {
		panic(fmt.Sprintf("compress: Angular: negative angle threshold %v", a.AngleThreshold))
	}
	maxSkip := a.DistThreshold
	if maxSkip <= 0 {
		maxSkip = math.Inf(1)
	}
	if out, ok := small(p); ok {
		return out
	}
	out := trajectory.Trajectory{p[0]}
	skipped := 0.0
	for i := 1; i < p.Len()-1; i++ {
		turn := geo.AngleBetween(out[len(out)-1].Pos(), p[i].Pos(), p[i+1].Pos())
		skipped += p[i].Pos().Dist(p[i-1].Pos())
		if turn > a.AngleThreshold || skipped > maxSkip {
			out = append(out, p[i])
			skipped = 0
		}
	}
	return append(out, p[p.Len()-1])
}

// DeadReckoning is an online baseline from the moving-object literature that
// complements the paper's opening-window algorithms: from each retained
// point, the object's position is predicted by extrapolating the velocity of
// the first following segment; the next point whose actual position deviates
// from the prediction by more than Threshold is retained and prediction
// restarts there.
type DeadReckoning struct {
	// Threshold is the maximum allowed prediction deviation in metres.
	Threshold float64
}

// Name implements Algorithm.
func (d DeadReckoning) Name() string { return fmt.Sprintf("DeadReckoning(%g)", d.Threshold) }

// Compress implements Algorithm.
func (d DeadReckoning) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, NewDeadReckoningEngine(d.Threshold))
}

// DeadReckoningEngine is the incremental core of DeadReckoning, shared by
// the batch algorithm and the online wrapper in internal/stream. The sample
// after each retained point only fixes the new velocity; prediction is
// tested from the one after it.
type DeadReckoningEngine struct {
	threshold    float64
	anchor, prev trajectory.Sample
	vx, vy       float64
	n            int // samples seen since the last re-anchor
	out          []trajectory.Sample
}

// NewDeadReckoningEngine returns a reset engine with deviation bound
// threshold (metres).
func NewDeadReckoningEngine(threshold float64) *DeadReckoningEngine {
	validateDistance("DeadReckoning", threshold)
	return &DeadReckoningEngine{threshold: threshold}
}

// Pending implements Engine: at most the one sample behind the anchor.
func (d *DeadReckoningEngine) Pending() int {
	if d.n > 1 {
		return 1
	}
	return 0
}

// Push implements Engine.
func (d *DeadReckoningEngine) Push(s trajectory.Sample) []trajectory.Sample {
	d.out = d.out[:0]
	switch d.n {
	case 0:
		d.anchor = s
		d.out = append(d.out, s)
	case 1:
		dt := s.T - d.anchor.T
		d.vx = (s.X - d.anchor.X) / dt
		d.vy = (s.Y - d.anchor.Y) / dt
	default:
		dt := s.T - d.anchor.T
		predX := d.anchor.X + d.vx*dt
		predY := d.anchor.Y + d.vy*dt
		dx, dy := s.X-predX, s.Y-predY
		if dx*dx+dy*dy > d.threshold*d.threshold {
			d.out = append(d.out, s)
			d.anchor = s
			d.n = 0 // the velocity re-derives from the next sample
		}
	}
	d.prev = s
	d.n++
	return d.out
}

// Flush implements Engine, emitting the last sample unless it is the anchor.
func (d *DeadReckoningEngine) Flush() []trajectory.Sample {
	d.out = d.out[:0]
	if d.n > 1 {
		d.out = append(d.out, d.prev)
	}
	d.n = 0
	return d.out
}
