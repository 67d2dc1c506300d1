package main

import (
	"fmt"
	"math"
	"sort"
)

// minP99Samples is the smallest sample count a p99 is reported from: ten
// samples lie beyond it.
const minP99Samples = 1000

// dist holds raw durations (or any raw measurements), in the order they
// were taken, for exact order statistics. Nothing is bucketed: a
// percentile is one of the samples.
type dist struct {
	v      []float64
	sorted []float64 // sorted copy of v, made on first use
}

func (d *dist) add(x float64) { d.v = append(d.v, x); d.sorted = nil }

func (d *dist) n() int { return len(d.v) }

// pct returns the nearest-rank p-th percentile: the smallest sample with at
// least p% of the samples at or below it. It returns 0 for an empty dist.
func (d *dist) pct(p float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	if len(d.sorted) != len(d.v) {
		d.sorted = append([]float64(nil), d.v...)
		sort.Float64s(d.sorted)
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.v))))
	if rank < 1 {
		rank = 1
	}
	return d.sorted[rank-1]
}

// p99 is pct(99) when the sample supports it and 0 otherwise.
func (d *dist) p99() float64 {
	if len(d.v) < minP99Samples {
		return 0
	}
	return d.pct(99)
}

// blockP99 cuts the samples, in the order they were taken, into
// consecutive blocks of minP99Samples (the last block absorbs any
// remainder), and returns the median of the blocks' p99s. A stall of the
// host delays the requests of a block or two; it moves this figure only if
// it lasts through half the run, where it would move a whole-run p99 on its
// own. It returns 0 for fewer than minP99Samples samples.
func (d *dist) blockP99() float64 {
	n := len(d.v) / minP99Samples
	if n == 0 {
		return 0
	}
	p99s := make([]float64, n)
	for b := range p99s {
		hi := (b + 1) * minP99Samples
		if b == n-1 {
			hi = len(d.v)
		}
		blk := dist{v: append([]float64(nil), d.v[b*minP99Samples:hi]...)}
		p99s[b] = blk.pct(99)
	}
	return median(p99s)
}

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// describe renders the dist for the human-readable report.
func (d *dist) describe(unit string) string {
	if len(d.v) < minP99Samples {
		return fmt.Sprintf("p50 %.2f %s (n=%d, too few for p99)", d.pct(50), unit, len(d.v))
	}
	return fmt.Sprintf("p50 %.2f p99 %.2f block-p99 %.2f max %.2f %s (n=%d)", d.pct(50), d.pct(99), d.blockP99(), d.pct(100), unit, len(d.v))
}

// median of a small slice, without modifying it.
func median(xs []float64) float64 {
	d := dist{v: xs}
	return d.pct(50)
}
