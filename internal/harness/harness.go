// Package harness regenerates every table and figure of the paper's
// evaluation (Section 4 and the Figure 2 summary). Each experiment runs
// in two phases, reproducing the paper's methodology on simulated 2006
// hardware:
//
//  1. Measure: the real engine scans a real (smaller-scale) table on this
//     machine through the scan package, counting its work — instructions,
//     memory traffic, I/O requests — with cpumodel.Counters. Scan work is
//     linear in tuple count, so the counts scale exactly to the paper's
//     60M-tuple tables; the machine model converts them into the paper's
//     CPU-time breakdown (sys / usr-uop / usr-L2 / usr-L1 / usr-rest).
//
//  2. Replay: the scan's I/O pattern is replayed at full 60M-tuple scale
//     against the simulated disk array — per-column files, batched
//     prefetching at the configured depth, competing scans — inside the
//     deterministic event kernel, with the measured CPU time interleaved
//     between I/O waits. The replay's completion time is the experiment's
//     elapsed time, with CPU and I/O overlapped exactly as the paper's
//     engine overlaps them.
package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/schema"
	"github.com/readoptdb/readopt/internal/simdisk"
	"github.com/readoptdb/readopt/internal/store"
)

// Params configures the reproduction. The zero value is unusable; start
// from DefaultParams.
type Params struct {
	// Machine is the modelled CPU platform.
	Machine cpumodel.Machine
	// Disk is the modelled disk array.
	Disk simdisk.Config
	// Costs is the engine's instruction cost table.
	Costs cpumodel.Costs
	// UnitPerDisk is the per-disk I/O unit in bytes. The paper's 128KB
	// I/O unit is modelled as one page-aligned request striped over the
	// three disks (40KB per disk, 120KB total), which reproduces the
	// paper's seek-amortization behaviour at its prefetch depths.
	UnitPerDisk int64
	// PrefetchDepth is the default number of I/O units issued at once per
	// file (48 in the paper's default configuration).
	PrefetchDepth int
	// PageSize is the database page size (4KB).
	PageSize int
	// MeasureTuples is the tuple count of the real tables the measure
	// phase scans.
	MeasureTuples int64
	// FullTuples is the scale the results are reported at (the paper's
	// LINEITEM scale 10 and ORDERS scale 40 both hold 60M tuples).
	FullTuples int64
	// Seed drives the deterministic data generator.
	Seed int64
	// DataDir caches the measure-phase tables across experiments; empty
	// means a fresh temporary directory.
	DataDir string
	// BlockTuples is the engine block size (100 in every experiment).
	BlockTuples int
}

// DefaultParams returns the paper's experimental configuration.
func DefaultParams() Params {
	disk := simdisk.DefaultConfig()
	disk.Seek = 5 * time.Millisecond
	disk.StripeUnit = 40 << 10
	return Params{
		Machine:       cpumodel.Paper2006(),
		Disk:          disk,
		Costs:         cpumodel.DefaultCosts(),
		UnitPerDisk:   40 << 10,
		PrefetchDepth: 48,
		PageSize:      page.DefaultSize,
		MeasureTuples: 200_000,
		FullTuples:    60_000_000,
		Seed:          1,
		BlockTuples:   100,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.Machine.Validate(); err != nil {
		return err
	}
	if err := p.Disk.Validate(); err != nil {
		return err
	}
	if p.UnitPerDisk <= 0 || p.UnitPerDisk%int64(p.PageSize) != 0 {
		return fmt.Errorf("harness: unit %d is not a positive page multiple", p.UnitPerDisk)
	}
	if p.PrefetchDepth < 1 || p.MeasureTuples < 1 || p.FullTuples < p.MeasureTuples || p.BlockTuples < 1 {
		return fmt.Errorf("harness: invalid scale parameters %+v", p)
	}
	return nil
}

// scale is the extrapolation factor from measured to reported tuples.
func (p Params) scale() float64 {
	return float64(p.FullTuples) / float64(p.MeasureTuples)
}

// Harness owns the cached measure-phase tables and runs experiments.
type Harness struct {
	p      Params
	dir    string
	tables map[string]*store.Table // keyed by schema name + layout
	cells  map[cellKey]Point       // experiment cells already run
}

// New prepares a harness, creating the data directory if needed.
func New(p Params) (*Harness, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	dir := p.DataDir
	if dir == "" {
		d, err := os.MkdirTemp("", "readopt-harness-")
		if err != nil {
			return nil, err
		}
		dir = d
	}
	return &Harness{p: p, dir: dir, tables: make(map[string]*store.Table), cells: make(map[cellKey]Point)}, nil
}

// Params returns the harness configuration.
func (h *Harness) Params() Params { return h.p }

// Dir returns the data directory.
func (h *Harness) Dir() string { return h.dir }

// Table loads (or returns the cached) measure-phase table for a schema
// and layout.
func (h *Harness) Table(sch *schema.Schema, layout store.Layout) (*store.Table, error) {
	key := sch.Name + "/" + string(layout)
	if t, ok := h.tables[key]; ok {
		return t, nil
	}
	sub := filepath.Join(h.dir, sanitize(key))
	t, err := store.Open(sub)
	if err != nil {
		t, err = store.LoadSynthetic(sub, sch, layout, h.p.PageSize, h.p.Seed, h.p.MeasureTuples)
		if err != nil {
			return nil, fmt.Errorf("harness: loading %s: %w", key, err)
		}
	} else if t.Tuples != h.p.MeasureTuples {
		return nil, fmt.Errorf("harness: cached table %s has %d tuples, want %d (remove %s)",
			key, t.Tuples, h.p.MeasureTuples, sub)
	}
	h.tables[key] = t
	return t, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '/', '\\', ':', ' ':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// fullFileBytes returns the on-disk size of a stored entity at full
// scale, given its per-page tuple capacity.
func (p Params) fullFileBytes(capacity int) int64 {
	pages := (p.FullTuples + int64(capacity) - 1) / int64(capacity)
	return pages * int64(p.PageSize)
}

// rowFileBytes returns the full-scale row file size for a schema.
func (p Params) rowFileBytes(sch *schema.Schema) int64 {
	return p.fullFileBytes(page.RowGeometry(sch, p.PageSize).Capacity())
}

// colFileBytes returns the full-scale column file size for one attribute.
func (p Params) colFileBytes(sch *schema.Schema, attr int) int64 {
	return p.fullFileBytes(page.ColGeometry(sch.Attrs[attr], p.PageSize).Capacity())
}

// rowsPerColPage returns a column's per-page value capacity.
func (p Params) rowsPerColPage(sch *schema.Schema, attr int) int {
	return page.ColGeometry(sch.Attrs[attr], p.PageSize).Capacity()
}
