package harness

import (
	"testing"

	"github.com/readoptdb/readopt/internal/schema"
)

// TestSmokeFigure6Numbers prints the key baseline numbers for manual
// calibration; assertions live in experiments_test.go.
func TestSmokeFigure6Numbers(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration smoke test")
	}
	h := testHarness(t)
	li := schema.Lineitem()
	for _, k := range []int{1, 8, 12, 14, 16} {
		q := Query{AttrsSelected: k, Selectivity: 0.10}
		row, err := h.RunScan(RowSystem, li, q, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		col, err := h.RunScan(ColumnSystem, li, q, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("k=%2d selBytes=%3d row: %6.1fs (cpu %5.1fs sys %4.1f) col: %6.1fs (cpu %5.1fs)",
			k, col.SelectedBytes, row.ElapsedSec, row.CPU.Total(), row.CPU.Sys, col.ElapsedSec, col.CPU.Total())
	}
}

// TestSmokeOrdersFigures prints the ORDERS-based figures for calibration.
func TestSmokeOrdersFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration smoke test")
	}
	h := testHarness(t)
	for _, k := range []int{1, 4, 7} {
		q := Query{AttrsSelected: k, Selectivity: 0.10}
		row, _ := h.RunScan(RowSystem, schema.Orders(), q, RunOpts{})
		col, _ := h.RunScan(ColumnSystem, schema.Orders(), q, RunOpts{})
		rz, _ := h.RunScan(RowSystem, schema.OrdersZ(), q, RunOpts{})
		cz, _ := h.RunScan(ColumnSystem, schema.OrdersZ(), q, RunOpts{})
		cf, _ := h.RunScan(ColumnSystem, schema.OrdersZFOR(), q, RunOpts{})
		t.Logf("fig8/9 k=%d  O row %5.1f col %5.1f(cpu %4.1f) | OZ row %5.1f(cpu %4.1f) colΔ %5.1f(cpu %4.1f) colF %5.1f(cpu %4.1f)",
			k, row.ElapsedSec, col.ElapsedSec, col.CPU.Total(), rz.ElapsedSec, rz.CPU.Total(), cz.ElapsedSec, cz.CPU.Total(), cf.ElapsedSec, cf.CPU.Total())
	}
	for _, d := range []int{2, 8, 48} {
		q := Query{AttrsSelected: 7, Selectivity: 0.10}
		col, _ := h.RunScan(ColumnSystem, schema.Orders(), q, RunOpts{Depth: d})
		t.Logf("fig10 depth=%2d col(7attrs) %6.1fs", d, col.ElapsedSec)
	}
	for _, d := range []int{48, 8, 2} {
		q := Query{AttrsSelected: 7, Selectivity: 0.10}
		row, _ := h.RunScan(RowSystem, schema.Orders(), q, RunOpts{Depth: d, CompeteLineitem: true})
		col, _ := h.RunScan(ColumnSystem, schema.Orders(), q, RunOpts{Depth: d, CompeteLineitem: true})
		slow, _ := h.RunScan(ColumnSlow, schema.Orders(), q, RunOpts{Depth: d, CompeteLineitem: true})
		t.Logf("fig11 depth=%2d row %6.1f col %6.1f slow %6.1f", d, row.ElapsedSec, col.ElapsedSec, slow.ElapsedSec)
	}
}
