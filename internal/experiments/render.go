package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/trajectory"
)

// RenderTable2 writes the Table 2 reproduction in the paper's layout
// (average and standard deviation per statistic).
func RenderTable2(w io.Writer, ds trajectory.DatasetStats) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Table 2: statistics on the %d moving object trajectories\n", ds.N)
	fmt.Fprintln(tw, "statistic\taverage\tstandard deviation")
	fmt.Fprintf(tw, "duration\t%s\t%s\n",
		trajectory.FormatDuration(ds.Mean.Duration), trajectory.FormatDuration(ds.StdDev.Duration))
	fmt.Fprintf(tw, "speed\t%.2f km/h\t%.2f km/h\n", ds.Mean.AvgSpeed*3.6, ds.StdDev.AvgSpeed*3.6)
	fmt.Fprintf(tw, "length\t%.2f km\t%.2f km\n", ds.Mean.Length/1000, ds.StdDev.Length/1000)
	fmt.Fprintf(tw, "displacement\t%.2f km\t%.2f km\n", ds.Mean.Displacement/1000, ds.StdDev.Displacement/1000)
	fmt.Fprintf(tw, "# of data points\t%d\t%d\n", ds.Mean.NumPoints, ds.StdDev.NumPoints)
	return tw.Flush()
}

// RenderFigure writes one figure's series as two aligned tables (error and
// compression per threshold), the textual analogue of the paper's plots.
func RenderFigure(w io.Writer, f Figure) error {
	if _, err := fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)

	xlabel := f.XLabel
	if xlabel == "" {
		xlabel = "threshold (m)"
	}
	fmt.Fprintf(tw, "%s\t", xlabel)
	for _, s := range f.Series {
		fmt.Fprintf(tw, "%s err (m)\t", s.Name)
	}
	for _, s := range f.Series {
		fmt.Fprintf(tw, "%s comp (%%)\t", s.Name)
	}
	fmt.Fprintln(tw)

	for i, th := range f.Series[0].Thresholds {
		fmt.Fprintf(tw, "%.0f\t", th)
		for _, s := range f.Series {
			fmt.Fprintf(tw, "%.1f\t", s.Error[i])
		}
		for _, s := range f.Series {
			fmt.Fprintf(tw, "%.1f\t", s.Compression[i])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// RenderFrontier writes a figure as (compression, error) pairs per series —
// the layout of the paper's Fig. 11.
func RenderFrontier(w io.Writer, f Figure) error {
	if _, err := fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "series\tthreshold (m)\tcompression (%)\terror (m)\t")
	for _, s := range f.Series {
		for i, th := range s.Thresholds {
			fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%.1f\t\n", s.Name, th, s.Compression[i], s.Error[i])
		}
	}
	return tw.Flush()
}

// RenderAll writes every artifact of `experiments -run all` to w in order,
// each followed by a blank line: Table 2, Figures 7–10, Fig. 11 as a
// frontier, then the extensions. A non-nil onFigure is called with each
// figure rendered as tables (the command writes its SVG charts there).
func RenderAll(w io.Writer, onFigure func(Figure)) error {
	err := RenderTable2(w, Table2())
	paper := AllFigures()
	figs := append(paper, OnePassFigure(), AblationTailDrop(), AblationBreakStrategy(),
		TaxonomyFigure(), BudgetFigure(), MapMatchFigure())
	for i, f := range figs {
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		if i == len(paper)-1 {
			err = RenderFrontier(w, f)
			continue
		}
		if err = RenderFigure(w, f); err == nil && onFigure != nil {
			onFigure(f)
		}
	}
	fmt.Fprintln(w)
	return err
}
