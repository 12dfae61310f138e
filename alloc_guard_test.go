//go:build !race

package readopt

import (
	"path/filepath"
	"runtime"
	"testing"
)

// The allocation guards bound the bytes one query allocates. Bytes
// allocated are a property of the code, not of the host, so unlike the
// timing floors in results/BENCH_floor.json these guards can fail
// anywhere they run. Not built under the race detector, whose sync.Pool
// drops Puts at random.

// queryAllocation loads a 50 k-row LINEITEM-Z column table, runs q once
// as a warm-up (its row count must fall in [minRows, maxRows]) and
// returns the mean bytes allocated by ten more runs.
func queryAllocation(t *testing.T, q func(tbl *Table) Query, minRows, maxRows int) uint64 {
	t.Helper()
	tbl, err := GenerateTPCH(filepath.Join(t.TempDir(), "lineitem"), LineitemZ(), ColumnLayout, 50_000, 1, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	query := q(tbl)
	run := func() int {
		rows, err := tbl.Query(query)
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
	if n := run(); n < minRows || n > maxRows {
		t.Fatalf("query returned %d of 50000 rows, want %d..%d", n, minRows, maxRows)
	}
	const queries = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / queries
}

// TestMediumQueryAllocationGuard: LINEITEM-Z, select A1..A4 where A1 < c
// at 10 %, column layout. The eager prefetch ring alone cost 4 columns ×
// 6,272 KB = 25 MB per query; what is left is scanner state, the result
// blocks, and the I/O units a GC cycle emptied from the pool.
func TestMediumQueryAllocationGuard(t *testing.T) {
	const limit = 1 << 20
	perQuery := queryAllocation(t, func(tbl *Table) Query {
		th, err := tbl.SelectivityThreshold(0.10)
		if err != nil {
			t.Fatal(err)
		}
		cols := LineitemZ().Columns()
		return Query{Select: cols[:4], Where: []Cond{{Column: cols[0], Op: "<", Value: th}}}
	}, 4000, 6000)
	if perQuery > limit {
		t.Errorf("medium query allocates %d KB, limit %d KB", perQuery>>10, limit>>10)
	} else {
		t.Logf("medium query allocates %d KB", perQuery>>10)
	}
}

// TestHeavyQueryAllocationGuard: the benchmark's heavy.k16 shape —
// LINEITEM-Z, all 16 columns, every row, column layout — where 15
// payload nodes attach values. It allocates about 890 KB per query; a
// page-sized scratch buffer per payload node, instead of the decoded
// scratch each cursor already owns, would cross the ceiling.
func TestHeavyQueryAllocationGuard(t *testing.T) {
	const limit = 1100 << 10
	perQuery := queryAllocation(t, func(tbl *Table) Query {
		cols := LineitemZ().Columns()
		if len(cols) != 16 {
			t.Fatalf("LINEITEM-Z has %d columns, want 16", len(cols))
		}
		th, err := tbl.SelectivityThreshold(1)
		if err != nil {
			t.Fatal(err)
		}
		return Query{Select: cols, Where: []Cond{{Column: cols[0], Op: "<", Value: th}}}
	}, 50_000, 50_000)
	if perQuery > limit {
		t.Errorf("heavy query allocates %d KB, limit %d KB", perQuery>>10, limit>>10)
	} else {
		t.Logf("heavy query allocates %d KB", perQuery>>10)
	}
}
