package scan

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/schema"
	"github.com/readoptdb/readopt/internal/store"
)

func loadPAX(t *testing.T, sch *schema.Schema) *store.Table {
	t.Helper()
	tbl, err := store.LoadSynthetic(filepath.Join(t.TempDir(), "pax"), sch, store.PAX, 4096, testSeed, testN)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newPAX(t *testing.T, tbl *store.Table, preds []exec.Predicate, proj []int, counters *cpumodel.Counters) *PAXScanner {
	t.Helper()
	s, err := NewPAXScanner(RowConfig{
		Schema:   tbl.Schema,
		PageSize: tbl.PageSize,
		Reader:   openOS(t, tbl.PAXPath()),
		Dicts:    tbl.Dicts,
		Preds:    preds,
		Proj:     proj,
		Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPAXScannerAgreesWithReference runs the same differential scenarios
// as the row/column scanners over the PAX layout.
func TestPAXScannerAgreesWithReference(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			tbl := loadPAX(t, sc.sch)
			preds := sc.preds(sc.sch)
			want := reference(t, sc.sch, preds, sc.proj)
			got, err := exec.Collect(newPAX(t, tbl, preds, sc.proj, nil))
			if err != nil {
				t.Fatalf("PAX scan: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("PAX scan output differs from reference (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestPAXTradeoff pins the PAX property the related work describes: disk
// I/O identical to the row store, memory traffic close to the column
// store when few attributes are selected.
func TestPAXTradeoff(t *testing.T) {
	sch := schema.Lineitem()
	rowTbl, err := store.LoadSynthetic(filepath.Join(t.TempDir(), "row"), sch, store.Row, 4096, testSeed, testN)
	if err != nil {
		t.Fatal(err)
	}
	paxTbl := loadPAX(t, sch)
	preds := selPred(sch, 0.10)
	proj := []int{schema.LPartKey, schema.LQuantity}

	var rowC, paxC cpumodel.Counters
	if _, err := exec.Drain(newRow(t, rowTbl, preds, proj, &rowC)); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Drain(newPAX(t, paxTbl, preds, proj, &paxC)); err != nil {
		t.Fatal(err)
	}
	// Same number of pages, same I/O (within one I/O unit).
	if diff := rowC.IOBytes - paxC.IOBytes; diff > 1<<20 || diff < -1<<20 {
		t.Errorf("PAX I/O (%d) should match row I/O (%d)", paxC.IOBytes, rowC.IOBytes)
	}
	// Far less memory traffic: two 4-byte minipages versus 152-byte rows.
	if paxC.SeqBytes*4 > rowC.SeqBytes {
		t.Errorf("PAX memory traffic (%d) should be far below row (%d)", paxC.SeqBytes, rowC.SeqBytes)
	}
}

func TestPAXScannerValidation(t *testing.T) {
	tbl := loadPAX(t, schema.Orders())
	if _, err := NewPAXScanner(RowConfig{Schema: tbl.Schema, Proj: []int{0}}); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewPAXScanner(RowConfig{Schema: tbl.Schema, Reader: openOS(t, tbl.PAXPath())}); err == nil {
		t.Error("empty projection accepted")
	}
}

// TestConjunctionCountersDeterministic: the row and PAX scanners
// evaluate a multi-attribute conjunction in first-predicate order and
// stop at the first failure, so the instructions charged for predicates
// — and with them the whole Counters — are the same on every run. (They
// used to follow Go's randomized map order.) The rows must still be the
// reference's and the scalar column scanner's.
func TestConjunctionCountersDeterministic(t *testing.T) {
	for _, sch := range []*schema.Schema{schema.Orders(), schema.OrdersZ()} {
		// The selective text predicate comes first; attribute order alone
		// would evaluate the integer one first.
		preds := append([]exec.Predicate{exec.TextPred(schema.OOrderStatus, exec.Eq, "F")}, selPred(sch, 0.5)...)
		proj := []int{schema.OOrderKey, schema.OOrderStatus, schema.OTotalPrice}
		want := reference(t, sch, preds, proj)
		tbls, pax := loadBoth(t, sch), loadPAX(t, sch)

		ccfg := colConfig(t, tbls.col, preds, proj, nil)
		ccfg.Scalar = true
		col, err := NewColScanner(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := exec.Collect(col); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: scalar column scan differs from reference (err %v)", sch.Name, err)
		}

		scanners := map[string]func(*cpumodel.Counters) exec.Operator{
			"row": func(c *cpumodel.Counters) exec.Operator { return newRow(t, tbls.row, preds, proj, c) },
			"pax": func(c *cpumodel.Counters) exec.Operator { return newPAX(t, pax, preds, proj, c) },
		}
		for name, open := range scanners {
			var first cpumodel.Counters
			for run := 0; run < 20; run++ {
				var c cpumodel.Counters
				got, err := exec.Collect(open(&c))
				if err != nil {
					t.Fatalf("%s %s: %v", sch.Name, name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %s: rows differ from reference", sch.Name, name)
				}
				if run == 0 {
					first = c
				} else if c != first {
					t.Fatalf("%s %s: run %d counted %+v, run 0 counted %+v", sch.Name, name, run, c, first)
				}
			}
		}
	}
}
