package harness

import (
	"fmt"

	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/model"
	"github.com/readoptdb/readopt/internal/schema"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string // "fig6", "table1", ...
	Title  string
	XLabel string
	Series []Series
	// Notes records reproduction caveats for EXPERIMENTS.md.
	Notes []string
}

// lineitemKs are the x-axis sample points of Figures 6 and 7: number of
// LINEITEM attributes selected.
var lineitemKs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// ordersKs are the x-axis points of Figures 8–10.
var ordersKs = []int{1, 2, 3, 4, 5, 6, 7}

// sweep runs one system across attribute counts.
func (h *Harness) sweep(sys System, sch *schema.Schema, ks []int, sel float64, opts RunOpts) (Series, error) {
	s := Series{Label: string(sys)}
	for _, k := range ks {
		pt, err := h.cell(sys, sch, Query{AttrsSelected: k, Selectivity: sel}, opts)
		if err != nil {
			return Series{}, fmt.Errorf("%s k=%d: %w", sys, k, err)
		}
		s.Points = append(s.Points, pt)
	}
	return s, nil
}

// Figure6 regenerates the baseline experiment: select the first k of
// LINEITEM's 16 attributes with a 10% selectivity predicate on
// L_PARTKEY. Elapsed time is I/O-bound for both systems; the row store is
// flat, the column store grows with the selected bytes and crosses over
// near full projection. The CPU breakdowns in the points are the bars of
// the figure's right-hand chart.
func (h *Harness) Figure6() (*Result, error) {
	row, err := h.sweep(RowSystem, schema.Lineitem(), lineitemKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	col, err := h.sweep(ColumnSystem, schema.Lineitem(), lineitemKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig6",
		Title:  "Baseline experiment (10% selectivity, LINEITEM)",
		XLabel: "selected bytes per tuple",
		Series: []Series{row, col},
	}, nil
}

// Figure7 repeats the baseline at 0.1% selectivity. I/O (and therefore
// elapsed time) is unchanged; the interest is the CPU breakdown, where
// the column system's added scan nodes now process one of every thousand
// values and its CPU curve flattens.
func (h *Harness) Figure7() (*Result, error) {
	row, err := h.sweep(RowSystem, schema.Lineitem(), lineitemKs, 0.001, RunOpts{})
	if err != nil {
		return nil, err
	}
	col, err := h.sweep(ColumnSystem, schema.Lineitem(), lineitemKs, 0.001, RunOpts{})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig7",
		Title:  "Changing selectivity to 0.1% (LINEITEM)",
		XLabel: "selected bytes per tuple",
		Series: []Series{row, col},
	}, nil
}

// Figure8 is the narrow-tuple experiment: the 32-byte ORDERS table at 10%
// selectivity. Both systems remain I/O-bound in elapsed time; in the CPU
// breakdown the memory-transfer components vanish (the bus outruns the
// CPU on narrow tuples).
func (h *Harness) Figure8() (*Result, error) {
	row, err := h.sweep(RowSystem, schema.Orders(), ordersKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	col, err := h.sweep(ColumnSystem, schema.Orders(), ordersKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig8",
		Title:  "10% selection query on ORDERS (narrow tuples)",
		XLabel: "selected bytes per tuple",
		Series: []Series{row, col},
	}, nil
}

// Figure9 is the compression experiment on the 12-byte ORDERS-Z table,
// with the column system run under both FOR-delta and plain FOR for
// attribute 2 (O_ORDERKEY): FOR-delta saves space but must decode every
// value in a page, FOR costs more bits but less computation.
func (h *Harness) Figure9() (*Result, error) {
	row, err := h.sweep(RowSystem, schema.OrdersZ(), ordersKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	delta, err := h.sweep(ColumnSystem, schema.OrdersZ(), ordersKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	delta.Label = "column FOR-delta"
	forPlain, err := h.sweep(ColumnSystem, schema.OrdersZFOR(), ordersKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	forPlain.Label = "column FOR"
	return &Result{
		ID:     "fig9",
		Title:  "Selection query on ORDERS-Z (compressed)",
		XLabel: "selected bytes per tuple (when uncompressed)",
		Series: []Series{row, delta, forPlain},
	}, nil
}

// figure10Depths are the prefetch depths of Figure 10.
var figure10Depths = []int{2, 4, 8, 16, 48}

// Figure10 sweeps the prefetch depth for the ORDERS scan: the row system
// (a single sequential scan) is insensitive, while the column system
// degrades as shrinking prefetch buffers turn reading into seeking.
func (h *Harness) Figure10() (*Result, error) {
	res := &Result{
		ID:     "fig10",
		Title:  "Varying the prefetch size when scanning ORDERS",
		XLabel: "selected bytes per tuple",
	}
	for _, d := range figure10Depths {
		s, err := h.sweep(ColumnSystem, schema.Orders(), ordersKs, 0.10, RunOpts{Depth: d})
		if err != nil {
			return nil, err
		}
		s.Label = fmt.Sprintf("column-%d", d)
		res.Series = append(res.Series, s)
	}
	row, err := h.sweep(RowSystem, schema.Orders(), ordersKs, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, row)
	return res, nil
}

// figure11Depths are the prefetch depths of Figure 11's three panels.
var figure11Depths = []int{48, 8, 2}

// Figure11 repeats the ORDERS scan in the presence of a competing
// LINEITEM row scan, for three prefetch depths, including the "slow"
// column engine that serializes its request submission. The aggressive
// column system stays ahead in the disk queues and outperforms the row
// system in every panel.
func (h *Harness) Figure11() ([]*Result, error) {
	var out []*Result
	for _, d := range figure11Depths {
		res := &Result{
			ID:     fmt.Sprintf("fig11-depth%d", d),
			Title:  fmt.Sprintf("ORDERS scan with a competing LINEITEM scan, prefetch %d", d),
			XLabel: "selected bytes per tuple",
		}
		opts := RunOpts{Depth: d, CompeteLineitem: true}
		row, err := h.sweep(RowSystem, schema.Orders(), ordersKs, 0.10, opts)
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("row-%d", d)
		col, err := h.sweep(ColumnSystem, schema.Orders(), ordersKs, 0.10, opts)
		if err != nil {
			return nil, err
		}
		col.Label = fmt.Sprintf("column-%d", d)
		slow, err := h.sweep(ColumnSlow, schema.Orders(), ordersKs, 0.10, opts)
		if err != nil {
			return nil, err
		}
		slow.Label = fmt.Sprintf("column-%d slow", d)
		res.Series = []Series{row, col, slow}
		out = append(out, res)
	}
	return out, nil
}

// Figure2 regenerates the summary contour from the analytical model,
// populated with the engine's calibrated CPU rates, as the paper does.
func (h *Harness) Figure2() ([]model.Figure2Cell, error) {
	return model.Figure2(h.Machine(), h.p.Costs)
}

// Machine returns the modelled machine.
func (h *Harness) Machine() cpumodel.Machine { return h.p.Machine }

// Trend is one row of Table 1: the expected direction of disk, memory and
// CPU time as a parameter grows, derived from the measured points rather
// than assumed.
type Trend struct {
	Parameter string
	Disk      int // +1 up, -1 down, 0 flat
	Mem       int
	CPU       int
}

// Table1 derives the paper's expected-trends table from measured pairs of
// runs on the column system (and, for tuple width, across tables).
func (h *Harness) Table1() ([]Trend, error) {
	direction := func(before, after, tolerance float64) int {
		switch {
		case after > before*(1+tolerance):
			return +1
		case after < before*(1-tolerance):
			return -1
		default:
			return 0
		}
	}
	var trends []Trend

	// Selecting more attributes (column store only).
	a, err := h.cell(ColumnSystem, schema.Lineitem(), Query{AttrsSelected: 4, Selectivity: 0.10}, RunOpts{})
	if err != nil {
		return nil, err
	}
	b, err := h.cell(ColumnSystem, schema.Lineitem(), Query{AttrsSelected: 12, Selectivity: 0.10}, RunOpts{})
	if err != nil {
		return nil, err
	}
	trends = append(trends, Trend{
		Parameter: "selecting more attributes (column store)",
		Disk:      direction(float64(a.IOBytes), float64(b.IOBytes), 0.02),
		Mem:       direction(a.CPU.UsrL2+a.CPU.UsrL1, b.CPU.UsrL2+b.CPU.UsrL1, 0.02),
		CPU:       direction(a.CPU.Total(), b.CPU.Total(), 0.02),
	})

	// Decreased selectivity.
	lo, err := h.cell(ColumnSystem, schema.Lineitem(), Query{AttrsSelected: 12, Selectivity: 0.001}, RunOpts{})
	if err != nil {
		return nil, err
	}
	trends = append(trends, Trend{
		Parameter: "decreased selectivity",
		Disk:      direction(float64(b.IOBytes), float64(lo.IOBytes), 0.02),
		Mem:       direction(b.CPU.UsrL2+b.CPU.UsrL1, lo.CPU.UsrL2+lo.CPU.UsrL1, 0.02),
		CPU:       direction(b.CPU.Total(), lo.CPU.Total(), 0.02),
	})

	// Narrower tuples (LINEITEM -> ORDERS, full projection).
	wide, err := h.cell(ColumnSystem, schema.Lineitem(), Query{AttrsSelected: 16, Selectivity: 0.10}, RunOpts{})
	if err != nil {
		return nil, err
	}
	narrow, err := h.cell(ColumnSystem, schema.Orders(), Query{AttrsSelected: 7, Selectivity: 0.10}, RunOpts{})
	if err != nil {
		return nil, err
	}
	trends = append(trends, Trend{
		Parameter: "narrower tuples",
		Disk:      direction(float64(wide.IOBytes), float64(narrow.IOBytes), 0.02),
		Mem:       direction(wide.CPU.UsrL2+wide.CPU.UsrL1, narrow.CPU.UsrL2+narrow.CPU.UsrL1, 0.02),
		CPU:       direction(wide.CPU.Total(), narrow.CPU.Total(), 0.02),
	})

	// Compression (ORDERS -> ORDERS-Z, full projection).
	z, err := h.cell(ColumnSystem, schema.OrdersZ(), Query{AttrsSelected: 7, Selectivity: 0.10}, RunOpts{})
	if err != nil {
		return nil, err
	}
	trends = append(trends, Trend{
		Parameter: "compression",
		Disk:      direction(float64(narrow.IOBytes), float64(z.IOBytes), 0.02),
		Mem:       direction(narrow.CPU.UsrL2+narrow.CPU.UsrL1, z.CPU.UsrL2+z.CPU.UsrL1, 0.02),
		CPU:       direction(narrow.CPU.UsrUop, z.CPU.UsrUop, 0.02),
	})

	// Larger prefetch (elapsed improves; bytes unchanged).
	small, err := h.cell(ColumnSystem, schema.Orders(), Query{AttrsSelected: 7, Selectivity: 0.10}, RunOpts{Depth: 2})
	if err != nil {
		return nil, err
	}
	large, err := h.cell(ColumnSystem, schema.Orders(), Query{AttrsSelected: 7, Selectivity: 0.10}, RunOpts{Depth: 48})
	if err != nil {
		return nil, err
	}
	trends = append(trends, Trend{
		Parameter: "larger prefetch",
		Disk:      direction(small.ElapsedSec, large.ElapsedSec, 0.02),
		Mem:       0,
		CPU:       0,
	})

	// More disk traffic.
	alone := large
	busy, err := h.cell(ColumnSystem, schema.Orders(), Query{AttrsSelected: 7, Selectivity: 0.10}, RunOpts{CompeteLineitem: true})
	if err != nil {
		return nil, err
	}
	trends = append(trends, Trend{
		Parameter: "more disk traffic",
		Disk:      direction(alone.ElapsedSec, busy.ElapsedSec, 0.02),
		Mem:       0,
		CPU:       0,
	})
	return trends, nil
}

// ExtensionPAX compares the three layouts — row, PAX, column — on the
// baseline LINEITEM query. It goes beyond the paper's two systems: PAX is
// the hybrid its related-work section describes, with the row store's I/O
// (a single file, elapsed time flat in projectivity) and the column
// store's cache behaviour (memory traffic follows the selected bytes).
func (h *Harness) ExtensionPAX() (*Result, error) {
	ks := []int{1, 4, 8, 12, 16}
	row, err := h.sweep(RowSystem, schema.Lineitem(), ks, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	pax, err := h.sweep(PAXSystem, schema.Lineitem(), ks, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	col, err := h.sweep(ColumnSystem, schema.Lineitem(), ks, 0.10, RunOpts{})
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "ext-pax",
		Title:  "Extension: PAX layout vs row and column (10% selectivity, LINEITEM)",
		XLabel: "selected bytes per tuple",
		Series: []Series{row, pax, col},
		Notes: []string{
			"PAX elapsed time matches the row store at every projectivity (same file, same I/O);",
			"PAX CPU time tracks the column store's for narrow projections (minipage-only memory traffic).",
		},
	}, nil
}
