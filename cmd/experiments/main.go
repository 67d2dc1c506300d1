// Command experiments regenerates the paper's evaluation: Table 2 and
// Figures 7–11 of Meratnia & de By (EDBT 2004), on the calibrated synthetic
// dataset.
//
// Usage:
//
//	experiments [-run all|table2|fig7|fig8|fig9|fig10|fig11|onepass|ablations]
//	            [-svg dir] [-parallel n]
//
// With -svg, every regenerated figure is also written as SVG line charts
// (one error chart and one compression chart per figure) into dir. The
// sweep grid (algorithm × threshold cells over the 10-trajectory dataset)
// runs on a bounded worker pool; -parallel overrides its width (0 =
// GOMAXPROCS, 1 = serial).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/plot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	run := flag.String("run", "all", "which artifact to regenerate: all, table2, fig7, fig8, fig9, fig10, fig11, onepass, ablations, verify")
	svgDir := flag.String("svg", "", "directory to also write figures as SVG charts (empty = off)")
	parallel := flag.Int("parallel", 0, "worker-pool width for the sweep grid (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()
	experiments.SetDefaultGridParallelism(*parallel)
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	out := os.Stdout
	table2 := func() {
		if err := experiments.RenderTable2(out, experiments.Table2()); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	figure := func(f experiments.Figure) {
		if err := experiments.RenderFigure(out, f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
		if *svgDir != "" {
			writeSVGs(*svgDir, f)
		}
	}

	switch *run {
	case "all":
		var onFigure func(experiments.Figure)
		if *svgDir != "" {
			onFigure = func(f experiments.Figure) { writeSVGs(*svgDir, f) }
		}
		if err := experiments.RenderAll(out, onFigure); err != nil {
			log.Fatal(err)
		}
	case "table2":
		table2()
	case "fig7":
		figure(experiments.Figure7())
	case "fig8":
		figure(experiments.Figure8())
	case "fig9":
		figure(experiments.Figure9())
	case "fig10":
		figure(experiments.Figure10())
	case "fig11":
		if err := experiments.RenderFrontier(out, experiments.Figure11()); err != nil {
			log.Fatal(err)
		}
	case "onepass":
		figure(experiments.OnePassFigure())
	case "ablations":
		figure(experiments.OnePassFigure())
		figure(experiments.AblationTailDrop())
		figure(experiments.AblationBreakStrategy())
		figure(experiments.TaxonomyFigure())
		figure(experiments.BudgetFigure())
		figure(experiments.MapMatchFigure())
	case "verify":
		allPass, err := experiments.RenderClaims(out, experiments.VerifyClaims())
		if err != nil {
			log.Fatal(err)
		}
		if !allPass {
			log.Fatal("reproduction certificate: FAILURES above")
		}
		fmt.Fprintln(out, "\nall paper claims reproduced")
	default:
		log.Fatalf("unknown -run value %q", *run)
	}
}

// writeSVGs renders a figure's error and compression sweeps as SVG charts.
func writeSVGs(dir string, f experiments.Figure) {
	xlabel := f.XLabel
	if xlabel == "" {
		xlabel = "threshold (m)"
	}
	slug := strings.ToLower(strings.NewReplacer(" ", "", ".", "").Replace(f.ID))
	for _, part := range []struct {
		suffix, ylabel string
		y              func(s experiments.Series) []float64
	}{
		{"error", "synchronized error (m)", func(s experiments.Series) []float64 { return s.Error }},
		{"compression", "compression (%)", func(s experiments.Series) []float64 { return s.Compression }},
	} {
		c := plot.Chart{
			Title:  fmt.Sprintf("%s — %s", f.ID, part.suffix),
			XLabel: xlabel,
			YLabel: part.ylabel,
		}
		for _, s := range f.Series {
			c.Series = append(c.Series, plot.Series{Name: s.Name, X: s.Thresholds, Y: part.y(s)})
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.svg", slug, part.suffix))
		out, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.RenderSVG(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	}
}
