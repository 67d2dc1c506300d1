package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"repro/internal/sed"
	"repro/internal/trajectory"
)

// snapshot fetches an object's SNAPSHOT over the protocol.
func snapshot(c *client, id string) (trajectory.Trajectory, error) {
	var out trajectory.Trajectory
	err := c.lines([]byte("SNAPSHOT "+id+"\n"), func(b []byte) error {
		v, err := floats(b, 3)
		if err != nil {
			return err
		}
		out = append(out, trajectory.S(v[0], v[1], v[2]))
		return nil
	})
	return out, err
}

// floats parses n space-separated numbers from b.
func floats(b []byte, n int) ([]float64, error) {
	f := bytes.Fields(b)
	if len(f) != n {
		return nil, fmt.Errorf("want %d numbers in %q", n, b)
	}
	out := make([]float64, n)
	for i, x := range f {
		v, err := strconv.ParseFloat(string(x), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// sedTolerance absorbs floating-point rounding in an ε comparison.
const sedTolerance = 1e-6

// sedCheck returns how many samples of sent lie farther than eps (by
// synchronized Euclidean distance) from the stored trajectory snap, the
// worst such distance, and how many samples lie outside snap's time span.
// Only samples at or after from are checked.
func sedCheck(sent, snap trajectory.Trajectory, eps, from float64) (bad int, worst float64, outside int) {
	i := 0
	for _, s := range sent {
		if s.T < from {
			continue
		}
		if len(snap) == 0 || s.T < snap[0].T || s.T > snap[len(snap)-1].T {
			outside++
			continue
		}
		for i+1 < len(snap) && snap[i+1].T < s.T {
			i++
		}
		var d float64
		if i+1 < len(snap) {
			d = sed.Distance(s, snap[i], snap[i+1])
		} else {
			d = s.Pos().Dist(snap[i].Pos())
		}
		if d > eps+sedTolerance {
			bad++
		}
		worst = math.Max(worst, d)
	}
	return bad, worst, outside
}

// alpha is the paper's §4.2 time-synchronized error of snap against the
// samples sent, over their common span; ok is false when it is undefined
// (fewer than two samples on either side).
func alpha(sent, snap trajectory.Trajectory) (float64, bool) {
	if len(sent) < 2 || len(snap) < 2 {
		return 0, false
	}
	a, err := sed.AvgError(sent, snap)
	return a, err == nil
}

// checkObjects fetches every object's SNAPSHOT and checks the samples sent
// to it against it: each must lie within eps by synchronized distance.
// It returns the snapshots and the mean α over objects. With sealed set,
// samples older than the SNAPSHOT (moved to the cold tier) are not checked.
func checkObjects(p *phase, c *client, ids []string, sent []trajectory.Trajectory, spec string, sealed bool) ([]trajectory.Trajectory, float64, error) {
	eps, bounded := sedBound(spec)
	snaps := make([]trajectory.Trajectory, len(ids))
	var sum float64
	var n, bad, outside int
	var worst float64
	for i, id := range ids {
		snap, err := snapshot(c, id)
		if err != nil {
			return nil, 0, err
		}
		snaps[i] = snap
		from := math.Inf(-1)
		if sealed && len(snap) > 0 {
			from = snap[0].T
		}
		b, w, o := sedCheck(sent[i], snap, eps, from)
		bad += b
		outside += o
		worst = math.Max(worst, w)
		hot := sent[i]
		for len(hot) > 0 && hot[0].T < from {
			hot = hot[1:]
		}
		if a, ok := alpha(hot, snap); ok {
			sum += a
			n++
		}
	}
	p.check(outside == 0, "%d acknowledged samples lie outside their object's SNAPSHOT span", outside)
	if bounded {
		p.check(bad == 0, "%d acknowledged samples lie farther than ε=%g m (SED) from their object's SNAPSHOT (worst %.3f m)", bad, eps, worst)
		p.say("sed check: every acknowledged sample within ε=%g m of its SNAPSHOT (worst %.3f m)", eps, worst)
	} else {
		p.say("sed check: not applicable, %s does not bound synchronized distance (worst %.3f m)", spec, worst)
	}
	if n == 0 {
		return snaps, 0, fmt.Errorf("α undefined for every object")
	}
	return snaps, sum / float64(n), nil
}
