package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/compress"
	"repro/internal/gpsgen"
	"repro/internal/stream"
)

// The stream-CPU phase measures the per-point CPU budget of every online
// compression algorithm at one fixed error tolerance, in-process (no TCP,
// no store): the cost of Push itself, which is what bounds ingest when the
// server runs with -compress. The one-pass algorithms (operb, ciseds,
// cisedw) exist to win this benchmark — they decide each point in O(1)
// where the opening-window engines re-scan their window — so the report
// records ns/point per algorithm and the compare gate fails CI when any
// algorithm regresses beyond the noise threshold.

// streamAlgoCPU is one algorithm's measurement.
type streamAlgoCPU struct {
	Spec           string  `json:"spec"`
	NsPerPoint     float64 `json:"ns_per_point"`
	CompressionPct float64 `json:"compression_pct"`
}

// streamCPURun is the report's "stream_cpu" section.
type streamCPURun struct {
	EpsMetres float64         `json:"eps_metres"`
	Points    int             `json:"points"`
	Algos     []streamAlgoCPU `json:"algorithms"`
}

// streamCPUSpecs enumerates every registry algorithm with an online form,
// in registry order, at tolerance eps and with an unbounded window. The
// OPW-SP speed threshold is the bench.sh default (15 m/s), matching the
// paper's spatiotemporal configuration.
func streamCPUSpecs(eps float64) []string {
	var specs []string
	for _, s := range compress.Registry() {
		if s.Online == nil {
			continue
		}
		spec := s.Name
		for _, k := range s.Args {
			switch k {
			case compress.Tolerance:
				spec += fmt.Sprintf(":%g", eps)
			case compress.Speed:
				spec += ":15"
			}
		}
		specs = append(specs, spec)
	}
	return specs
}

// runStreamCPU replays the seeded fleet through each algorithm
// (best-of-three, min ns/point: the least-noise estimator on shared
// runners) and reports per-point cost plus the achieved compression.
func runStreamCPU(seed int64, objects, points int, spread, duration, eps float64) streamCPURun {
	g := gpsgen.New(seed, gpsgen.DefaultConfig())
	trips := g.Fleet(objects, spread, duration)
	perObj := points / objects
	if perObj < 2 {
		perObj = 2
	}
	total := 0
	for i, trip := range trips {
		if len(trip) > perObj {
			trips[i] = trip[:perObj]
		}
		total += len(trips[i])
	}

	run := streamCPURun{EpsMetres: eps, Points: total}
	for _, spec := range streamCPUSpecs(eps) {
		factory, err := stream.ParseFactory(spec)
		if err != nil {
			log.Fatalf("stream-cpu: %v", err)
		}
		best := 0.0
		kept := 0
		for rep := 0; rep < 3; rep++ {
			kept = 0
			start := time.Now()
			for _, trip := range trips {
				c := factory()
				for _, s := range trip {
					out, err := c.Push(s)
					if err != nil {
						log.Fatalf("stream-cpu: %s: %v", spec, err)
					}
					kept += len(out)
				}
				kept += len(c.Flush())
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(total)
			if rep == 0 || ns < best {
				best = ns
			}
		}
		run.Algos = append(run.Algos, streamAlgoCPU{
			Spec:           spec,
			NsPerPoint:     best,
			CompressionPct: compress.Rate(total, kept),
		})
	}

	logStreamCPU(run)
	return run
}

// logStreamCPU prints the per-algorithm table and the head-to-head verdict
// the benchmark exists for: does the fastest one-pass algorithm beat the
// fastest opening-window engine (the registry entries with a window cap)?
func logStreamCPU(run streamCPURun) {
	var onePass, window streamAlgoCPU
	for _, a := range run.Algos {
		log.Printf("stream-cpu: %-14s %8.1f ns/point  %5.1f%% compression", a.Spec, a.NsPerPoint, a.CompressionPct)
		s, _ := compress.Lookup(a.Spec)
		best := &window
		if s.OnePass {
			best = &onePass
		} else if !s.Windowed() {
			continue
		}
		if best.Spec == "" || a.NsPerPoint < best.NsPerPoint {
			*best = a
		}
	}
	if onePass.Spec == "" || window.Spec == "" {
		return
	}
	if onePass.NsPerPoint < window.NsPerPoint {
		log.Printf("stream-cpu: one-pass %s beats the fastest opening window %s: %.1f vs %.1f ns/point (%.1fx)",
			onePass.Spec, window.Spec, onePass.NsPerPoint, window.NsPerPoint, window.NsPerPoint/onePass.NsPerPoint)
	} else {
		log.Printf("stream-cpu: WARNING: no one-pass algorithm beat the fastest opening window %s (%.1f vs %.1f ns/point)",
			window.Spec, onePass.NsPerPoint, window.NsPerPoint)
	}
}

// streamCPUByName indexes a report's stream-CPU section by spec, empty when
// the report carries none — the compare gate joins old and new on spec.
func streamCPUByName(rep report) map[string]streamAlgoCPU {
	out := make(map[string]streamAlgoCPU)
	if rep.StreamCPU == nil {
		return out
	}
	for _, a := range rep.StreamCPU.Algos {
		out[a.Spec] = a
	}
	return out
}
