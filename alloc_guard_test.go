//go:build !race

package readopt

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestMediumQueryAllocationGuard bounds the bytes one medium query
// allocates: LINEITEM-Z, select A1..A4 where A1 < c at 10 %, column
// layout, 50 k rows. Bytes allocated are a property of the code, not of
// the host, so unlike the timing floors in results/BENCH_floor.json this
// guard can fail anywhere it runs. The eager prefetch ring alone cost
// 4 columns × 6,272 KB = 25 MB per query; what is left is scanner state,
// the result blocks, and the I/O units a GC cycle emptied from the pool.
// Not built under the race detector, whose sync.Pool drops Puts at random.
func TestMediumQueryAllocationGuard(t *testing.T) {
	const limit = 1 << 20
	tbl, err := GenerateTPCH(filepath.Join(t.TempDir(), "lineitem"), LineitemZ(), ColumnLayout, 50_000, 1, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	th, err := tbl.SelectivityThreshold(0.10)
	if err != nil {
		t.Fatal(err)
	}
	cols := LineitemZ().Columns()
	q := Query{Select: cols[:4], Where: []Cond{{Column: cols[0], Op: "<", Value: th}}}
	run := func() int {
		rows, err := tbl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := run(); n < 4000 || n > 6000 { // also the warm-up
		t.Fatalf("10%% selectivity returned %d of 50000 rows", n)
	}
	const queries = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perQuery := (after.TotalAlloc - before.TotalAlloc) / queries; perQuery > limit {
		t.Errorf("medium query allocates %d KB, limit %d KB", perQuery>>10, limit>>10)
	} else {
		t.Logf("medium query allocates %d KB", perQuery>>10)
	}
}
