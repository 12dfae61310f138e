package harness

import (
	"fmt"
	"io"
	"strings"

	"github.com/readoptdb/readopt/internal/model"
)

// WriteResult renders a regenerated figure as an aligned text table: one
// row per x-axis point, one elapsed-time column per series, followed by
// the CPU totals.
func WriteResult(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(r.ID), r.Title); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(w, " %16s", s.Label+" [s]")
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, " %16s", s.Label+" cpu[s]")
	}
	fmt.Fprintln(w)
	if len(r.Series) == 0 || len(r.Series[0].Points) == 0 {
		return nil
	}
	for i := range r.Series[0].Points {
		fmt.Fprintf(w, "%-28d", r.Series[0].Points[i].SelectedBytes)
		for _, s := range r.Series {
			fmt.Fprintf(w, " %16.2f", s.Points[i].ElapsedSec)
		}
		for _, s := range r.Series {
			fmt.Fprintf(w, " %16.2f", s.Points[i].CPU.Total())
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
	return nil
}

// WriteBreakdowns renders the CPU-time stacked bars of a figure's
// right-hand chart: sys / usr-uop / usr-L2 / usr-L1 / usr-rest per point.
func WriteBreakdowns(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "%s — CPU time breakdowns [s]\n", strings.ToUpper(r.ID)); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %6s %8s %8s %8s %8s %8s %8s\n",
		"system", "attrs", "sys", "usr-uop", "usr-L2", "usr-L1", "usr-rest", "total")
	for _, s := range r.Series {
		for _, p := range s.Points {
			b := p.CPU
			fmt.Fprintf(w, "%-16s %6d %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
				s.Label, p.Query.AttrsSelected, b.Sys, b.UsrUop, b.UsrL2, b.UsrL1, b.UsrRest, b.Total())
		}
	}
	fmt.Fprintln(w)
	return nil
}

// WriteFigure2 renders the speedup contour grid.
func WriteFigure2(w io.Writer, cells []model.Figure2Cell) error {
	if _, err := fmt.Fprintln(w, "FIG2 — Average speedup of columns over rows (50% projection, 10% selectivity)"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s", "cpdb\\width")
	for _, wd := range model.Figure2Widths {
		fmt.Fprintf(w, " %6dB", wd)
	}
	fmt.Fprintln(w)
	for _, cpdb := range model.Figure2CPDBs {
		fmt.Fprintf(w, "%-12.0f", cpdb)
		for _, wd := range model.Figure2Widths {
			for _, c := range cells {
				if c.CPDB == cpdb && c.TupleWidth == wd {
					fmt.Fprintf(w, " %7.2f", c.Speedup)
				}
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// arrow renders a trend direction in the style of the paper's Table 1.
func arrow(d int) string {
	switch {
	case d > 0:
		return "up"
	case d < 0:
		return "down"
	default:
		return "-"
	}
}

// WriteTable1 renders the derived expected-trends table.
func WriteTable1(w io.Writer, trends []Trend) error {
	if _, err := fmt.Fprintln(w, "TABLE1 — Measured performance trends (disk / memory / CPU time)"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-46s %6s %6s %6s\n", "parameter", "disk", "mem", "cpu")
	for _, t := range trends {
		fmt.Fprintf(w, "%-46s %6s %6s %6s\n", t.Parameter, arrow(t.Disk), arrow(t.Mem), arrow(t.CPU))
	}
	fmt.Fprintln(w)
	return nil
}

// ExperimentIDs lists the reproducible experiments in paper order.
func ExperimentIDs() []string {
	return []string{"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table1", "table2", "ext-pax"}
}

// WriteExperiment regenerates one experiment and renders it to w. Valid
// ids are those of ExperimentIDs.
func (h *Harness) WriteExperiment(w io.Writer, id string) error {
	switch id {
	case "fig2":
		cells, err := h.Figure2()
		if err != nil {
			return err
		}
		return WriteFigure2(w, cells)
	case "fig6", "fig7", "fig8", "fig9", "fig10", "ext-pax":
		figures := map[string]func() (*Result, error){
			"fig6": h.Figure6, "fig7": h.Figure7, "fig8": h.Figure8,
			"fig9": h.Figure9, "fig10": h.Figure10, "ext-pax": h.ExtensionPAX,
		}
		res, err := figures[id]()
		if err != nil {
			return err
		}
		if err := WriteResult(w, res); err != nil {
			return err
		}
		if id != "fig10" {
			// The CPU breakdown is the point of most figures (and of the
			// PAX extension); the prefetch sweep's CPU side is flat.
			return WriteBreakdowns(w, res)
		}
		return nil
	case "fig11":
		panels, err := h.Figure11()
		if err != nil {
			return err
		}
		for _, res := range panels {
			if err := WriteResult(w, res); err != nil {
				return err
			}
		}
		return nil
	case "table1":
		trends, err := h.Table1()
		if err != nil {
			return err
		}
		return WriteTable1(w, trends)
	case "table2":
		return WriteTable2(w, h.Table2())
	default:
		return fmt.Errorf("harness: unknown experiment %q (valid: %v)", id, ExperimentIDs())
	}
}

// WriteAll regenerates every experiment in paper order — the text
// checked in as results/experiments.txt.
func (h *Harness) WriteAll(w io.Writer) error {
	for _, id := range ExperimentIDs() {
		if err := h.WriteExperiment(w, id); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}
