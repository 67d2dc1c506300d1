// Package stream runs the online compression algorithms over position
// streams in real time with bounded memory — the paper's motivation for
// studying opening-window algorithms at all ("they are online algorithms",
// §2.2).
//
// An online compressor receives samples one at a time and emits retained
// samples as soon as their fate is decided. Every algorithm is one engine
// of internal/compress, which its batch Compress drives too, so the emitted
// stream equals the batch result on the same input by construction (an
// opening-window engine's optional window cap forces the same earlier cuts
// in both). This package adds only what a live stream needs: the
// timestamp-order check, instrumentation (Instrument), whole-trajectory
// collection (Collect) and a channel pipeline (Pipeline). Specs are parsed
// by the one grammar of compress.Registry (ParseFactory).
package stream

import (
	"errors"
	"fmt"

	"repro/internal/compress"
	"repro/internal/trajectory"
)

// Compressor consumes a stream of samples and emits the retained
// subsequence incrementally.
type Compressor interface {
	// Push feeds one sample and returns any samples whose retention became
	// definite. Samples must arrive with strictly increasing timestamps.
	// The returned slice is only valid until the next call.
	Push(s trajectory.Sample) ([]trajectory.Sample, error)
	// Flush terminates the stream, returning the remaining retained samples
	// (at least the final input sample, if any input was seen after the
	// last emission). The compressor is reusable for a new stream after
	// Flush.
	Flush() []trajectory.Sample
}

// ErrOutOfOrder is returned by Push for non-increasing timestamps.
var ErrOutOfOrder = errors.New("stream: sample timestamps must strictly increase")

// online is the one Compressor implementation: it enforces the timestamp
// order and drives a compress.Engine, the same engine the batch algorithm
// runs.
type online struct {
	engine compress.Engine
	seen   bool
	prevT  float64
}

func (o *online) Push(s trajectory.Sample) ([]trajectory.Sample, error) {
	if o.seen && s.T <= o.prevT {
		return nil, fmt.Errorf("%w: t=%v after t=%v", ErrOutOfOrder, s.T, o.prevT)
	}
	o.seen = true
	o.prevT = s.T
	return o.engine.Push(s), nil
}

func (o *online) Flush() []trajectory.Sample {
	o.seen = false
	return o.engine.Flush()
}

// BufferLen reports the samples the engine buffers: the opening-window
// engines' whole window, at most one for the others.
func (o *online) BufferLen() int { return o.engine.Pending() }

// wrap returns a Compressor driving e.
func wrap(e compress.Engine) Compressor { return &online{engine: e} }

// NewOPWTR returns an online OPW-TR compressor (synchronized-distance
// halting condition). maxWindow caps the buffered window size; 0 means
// unbounded, matching the batch algorithm exactly.
func NewOPWTR(threshold float64, maxWindow int) Compressor {
	return wrap(compress.NewOPWEngine(compress.SEDViolation(threshold), compress.BreakAtViolation, false, maxWindow))
}

// NewOPWSP returns an online OPW-SP compressor (the paper's SPT pseudocode):
// synchronized distance plus the speed-difference criterion. maxWindow caps
// the buffered window size; 0 means unbounded.
func NewOPWSP(distThreshold, speedThreshold float64, maxWindow int) Compressor {
	return wrap(compress.NewOPWEngine(compress.SPViolation(distThreshold, speedThreshold), compress.BreakAtViolation, false, maxWindow))
}

// NewNOPW returns an online NOPW compressor (perpendicular distance).
// maxWindow caps the buffered window size; 0 means unbounded.
func NewNOPW(threshold float64, maxWindow int) Compressor {
	return wrap(compress.NewOPWEngine(compress.PerpViolation(threshold), compress.BreakAtViolation, false, maxWindow))
}

// NewDeadReckoning returns an online dead-reckoning compressor: points whose
// position is predicted within threshold by extrapolating the velocity at
// the last retained point are dropped.
func NewDeadReckoning(threshold float64) Compressor {
	return wrap(compress.NewDeadReckoningEngine(threshold))
}

// NewOPERB returns the online OPERB compressor (one-pass error bounded,
// perpendicular distance ≤ eps; arXiv:1702.05597). O(1) memory, no window
// cap needed.
func NewOPERB(eps float64) Compressor { return wrap(compress.NewOPERBEngine(eps)) }

// NewCISEDS returns the online CISED-S compressor (one-pass strong SED
// simplification, SED ≤ eps; arXiv:1801.05360). O(1) memory, emits only
// input samples.
func NewCISEDS(eps float64) Compressor { return wrap(compress.NewCISEDEngine(eps, false)) }

// NewCISEDW returns the online CISED-W compressor: like CISED-S but weak —
// windows close with synthesized joint points (at input timestamps), which
// buys a higher compression rate at the same ε.
func NewCISEDW(eps float64) Compressor { return wrap(compress.NewCISEDEngine(eps, true)) }

// Collect runs a compressor over a whole trajectory and gathers the emitted
// stream, including the flush — a convenience for tests and batch callers.
func Collect(c Compressor, p trajectory.Trajectory) (trajectory.Trajectory, error) {
	var out trajectory.Trajectory
	for _, s := range p {
		emitted, err := c.Push(s)
		if err != nil {
			return nil, err
		}
		out = append(out, emitted...)
	}
	return append(out, c.Flush()...), nil
}
