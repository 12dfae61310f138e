package harness

import (
	"fmt"

	"github.com/readoptdb/readopt/internal/page"

	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/schema"
	"github.com/readoptdb/readopt/internal/store"
)

// Point is one measured cell of an experiment: a (system, query)
// combination at full scale.
type Point struct {
	System System
	Query  Query
	// SelectedBytes is the decoded width of the selected attributes —
	// the x-axis of Figures 6–10.
	SelectedBytes int
	// ElapsedSec is the replayed end-to-end time, CPU and I/O
	// overlapped.
	ElapsedSec float64
	// CPU is the scaled CPU-time breakdown (the bars of Figures 6–9).
	CPU cpumodel.Breakdown
	// IOBytes and Seeks aggregate the simulated array's iostat counters
	// for the whole run (including competitors, when present).
	IOBytes int64
	Seeks   int64
	// Qualified is the scaled number of qualifying tuples.
	Qualified int64
}

// RunOpts vary a run away from the defaults.
type RunOpts struct {
	// Depth overrides the prefetch depth (0 keeps the default).
	Depth int
	// CompeteLineitem adds a concurrent row-system scan of LINEITEM on
	// the same array, with matched prefetch depth (Section 4.5).
	CompeteLineitem bool
}

// cellKey identifies one experiment cell; schema names are unique.
type cellKey struct {
	sys    System
	schema string
	q      Query
	opts   RunOpts
}

// cell returns RunScan's point for an experiment cell, running it once
// per harness: measurement and replay are deterministic, so figures that
// share a cell (Figure 6, Table 1 and the PAX extension all scan
// LINEITEM) reuse it instead of scanning again.
func (h *Harness) cell(sys System, sch *schema.Schema, q Query, opts RunOpts) (Point, error) {
	if opts.Depth <= 0 {
		opts.Depth = h.p.PrefetchDepth // the default RunScan would pick
	}
	key := cellKey{sys: sys, schema: sch.Name, q: q, opts: opts}
	if pt, ok := h.cells[key]; ok {
		return pt, nil
	}
	pt, err := h.RunScan(sys, sch, q, opts)
	if err != nil {
		return Point{}, err
	}
	h.cells[key] = pt
	return pt, nil
}

// RunScan measures and replays one experiment cell.
func (h *Harness) RunScan(sys System, sch *schema.Schema, q Query, opts RunOpts) (Point, error) {
	depth := opts.Depth
	if depth <= 0 {
		depth = h.p.PrefetchDepth
	}
	layout := store.Column
	switch sys {
	case RowSystem:
		layout = store.Row
	case PAXSystem:
		layout = store.PAX
	}
	tbl, err := h.Table(sch, layout)
	if err != nil {
		return Point{}, err
	}
	m, err := h.Measure(sys, tbl, q)
	if err != nil {
		return Point{}, err
	}
	spec, err := h.scanSpec(sys, sch, q, m.CPU.Total(), depth)
	if err != nil {
		return Point{}, err
	}
	var competitors []replaySpec
	if opts.CompeteLineitem {
		competitors = append(competitors, h.lineitemCompetitor(depth))
	}
	elapsed, stats, err := h.runReplay(spec, competitors...)
	if err != nil {
		return Point{}, err
	}
	pt := Point{
		System:        sys,
		Query:         q,
		SelectedBytes: sch.SelectedBytes(q.Proj()),
		ElapsedSec:    elapsed,
		CPU:           m.CPU,
		Qualified:     m.Qualified,
	}
	for _, s := range stats {
		pt.IOBytes += s.BytesRead
		pt.Seeks += s.Seeks
	}
	return pt, nil
}

// scanSpec builds the full-scale replay description of a scan.
func (h *Harness) scanSpec(sys System, sch *schema.Schema, q Query, cpuSeconds float64, depth int) (replaySpec, error) {
	spec := replaySpec{
		name:       fmt.Sprintf("%s:%s", sys, sch.Name),
		totalRows:  h.p.FullTuples,
		cpuSeconds: cpuSeconds,
		depth:      depth,
		slow:       sys == ColumnSlow,
	}
	if sys == RowSystem || sys == PAXSystem {
		// PAX pages have the row layout's exact geometry, so the file
		// size and access pattern are the row store's.
		spec.files = []replayFile{{
			name:        "table.row",
			bytes:       h.p.rowFileBytes(sch),
			rowsPerPage: page.RowGeometry(sch, h.p.PageSize).Capacity(),
		}}
		return spec, nil
	}
	// Needed columns in scan-node order: the predicate column (the
	// table's first attribute) drives, then the remaining selected
	// columns in projection order.
	seen := map[int]bool{}
	var order []int
	if q.Selectivity < 1 {
		order = append(order, 0)
		seen[0] = true
	}
	for _, a := range q.Proj() {
		if !seen[a] {
			order = append(order, a)
			seen[a] = true
		}
	}
	for _, a := range order {
		spec.files = append(spec.files, replayFile{
			name:        store.ColumnFileName(sch, a),
			bytes:       h.p.colFileBytes(sch, a),
			rowsPerPage: h.p.rowsPerColPage(sch, a),
		})
	}
	return spec, nil
}

// lineitemCompetitor is the concurrent scan of Section 4.5: a separate
// process running a row-system scan of the 9.5GB LINEITEM table. Its
// consumption is I/O-bound, so it replays with no interleaved CPU time.
func (h *Harness) lineitemCompetitor(depth int) replaySpec {
	li := schema.Lineitem()
	return replaySpec{
		name:      "competitor:LINEITEM",
		totalRows: h.p.FullTuples,
		depth:     depth,
		files: []replayFile{{
			name:        "table.row",
			bytes:       h.p.rowFileBytes(li),
			rowsPerPage: page.RowGeometry(li, h.p.PageSize).Capacity(),
		}},
	}
}
