package readopt

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/readoptdb/readopt/internal/fault"
)

// kvSchema is the ingest suite's table: an int32 key the table sorts on
// and an int32 value with a derivable per-key function, so any result
// can be checked arithmetically.
func kvSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("KV", []Column{
		{Name: "K", Type: Int32},
		{Name: "V", Type: Int32},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// valOf is the value function: deterministic, non-constant, cheap to
// prefix-sum.
func valOf(i int) int64 { return int64(i%97 + 1) }

func createKV(t *testing.T, layout Layout, opts IngestOptions) *Table {
	t.Helper()
	opts.Key = "K"
	tbl, err := CreateIngest(filepath.Join(t.TempDir(), "kv"), kvSchema(t), layout, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.CloseIngest() })
	return tbl
}

// countAndSum runs the aggregate pair every consistency assertion needs.
func countAndSum(t *testing.T, tbl *Table, dop int) (count, sum int64) {
	t.Helper()
	rows, err := tbl.QueryExec(Query{
		Aggs: []Agg{{Func: "count"}, {Func: "sum", Column: "V"}},
	}, ExecOptions{Dop: dop})
	if err != nil {
		t.Fatalf("dop=%d: %v", dop, err)
	}
	defer rows.Close()
	if !rows.Next() {
		// Aggregates over an empty table emit no row; the consistency
		// writer may not have committed its first batch yet.
		if err := rows.Err(); err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		return 0, 0
	}
	vals, err := rows.Values()
	if err != nil {
		t.Fatal(err)
	}
	return vals[0].(int64), vals[1].(int64)
}

// TestIngestVisibilityAndLifecycle: rows are queryable the moment Insert
// returns, across memtable, spilled runs and compacted generations, at
// every layout and dop — and the lifecycle counters record the spills
// and compactions that happened along the way.
func TestIngestVisibilityAndLifecycle(t *testing.T) {
	const n = 3000
	width := kvSchema(t).inner.Width()
	for _, layout := range []Layout{RowLayout, ColumnLayout, PAXLayout} {
		t.Run(string(layout), func(t *testing.T) {
			tbl := createKV(t, layout, IngestOptions{
				MemtableBytes:    256 * width,
				CompactAfterRuns: 1 << 30, // manual compaction only
				DisableCompactor: true,
			})
			var wantSum int64
			for i := 0; i < n; i++ {
				if err := tbl.Insert(i, int(valOf(i))); err != nil {
					t.Fatal(err)
				}
				wantSum += valOf(i)
			}
			if got := tbl.Rows(); got != n {
				t.Fatalf("Rows = %d, want %d", got, n)
			}
			st := tbl.IngestStats()
			if st.Spills == 0 || st.LiveRuns == 0 {
				t.Fatalf("no spills after %d rows over a %d-row memtable: %+v", n, 256, st)
			}
			for _, dop := range []int{1, 2, 8} {
				if c, s := countAndSum(t, tbl, dop); c != n || s != wantSum {
					t.Fatalf("dop=%d pre-compact: count=%d sum=%d, want %d/%d", dop, c, s, n, wantSum)
				}
			}

			// A filtered projection must apply predicates to the overlay too.
			rows, err := tbl.Query(Query{Select: []string{"K", "V"}, Where: []Cond{{Column: "K", Op: "<", Value: 10}}})
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainOrError(rows)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 10*width {
				t.Fatalf("K<10 returned %d bytes, want %d", len(got), 10*width)
			}

			epoch := tbl.IngestStats().Epoch
			if err := tbl.Compact(); err != nil {
				t.Fatal(err)
			}
			st = tbl.IngestStats()
			if st.Compactions != 1 || st.LiveRuns != 0 || st.Epoch <= epoch {
				t.Fatalf("after compact: %+v (pre-epoch %d)", st, epoch)
			}
			for _, dop := range []int{1, 2, 8} {
				if c, s := countAndSum(t, tbl, dop); c != n || s != wantSum {
					t.Fatalf("dop=%d post-compact: count=%d sum=%d, want %d/%d", dop, c, s, n, wantSum)
				}
			}
		})
	}
}

// TestIngestSnapshotConsistency is the differential acceptance test for
// the write path: a writer inserts atomic batches while background
// compactions run and a query matrix (3 layouts handled by the outer
// loop, dop 1/2/8 here) hammers the table. Every answer must be
// consistent with EXACTLY ONE epoch: a whole number of committed
// batches, with the sum of V equal to the prefix sum at that count —
// never a torn batch, never rows from two versions.
func TestIngestSnapshotConsistency(t *testing.T) {
	const (
		batches   = 120
		batchSize = 50
	)
	width := kvSchema(t).inner.Width()

	// prefix[b] = sum of V over the first b batches.
	prefix := make([]int64, batches+1)
	for b := 0; b < batches; b++ {
		prefix[b+1] = prefix[b]
		for i := b * batchSize; i < (b+1)*batchSize; i++ {
			prefix[b+1] += valOf(i)
		}
	}

	for _, layout := range []Layout{RowLayout, ColumnLayout, PAXLayout} {
		t.Run(string(layout), func(t *testing.T) {
			tbl := createKV(t, layout, IngestOptions{
				MemtableBytes:    512 * width,
				CompactAfterRuns: 2, // background compactor races the queries
			})

			// A batch is visible from somewhere inside InsertBatch, before
			// the writer gets to count it as committed, so a query may see
			// one batch more than were acknowledged when it finished: the
			// bracket is acknowledged-before ≤ observed ≤ sent-after.
			var sent, committed atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					rows := make([][]any, batchSize)
					for j := 0; j < batchSize; j++ {
						i := b*batchSize + j
						rows[j] = []any{i, int(valOf(i))}
					}
					sent.Add(1)
					if err := tbl.InsertBatch(rows); err != nil {
						t.Errorf("batch %d: %v", b, err)
						return
					}
					committed.Add(1)
				}
			}()

			for r := 0; r < 40; r++ {
				for _, dop := range []int{1, 2, 8} {
					lo := committed.Load()
					count, sum := countAndSum(t, tbl, dop)
					hi := sent.Load()
					if count%batchSize != 0 {
						t.Fatalf("dop=%d: count %d is not a whole number of %d-row batches: torn batch visible",
							dop, count, batchSize)
					}
					b := count / batchSize
					if sum != prefix[b] {
						t.Fatalf("dop=%d: count %d rows but sum %d != prefix[%d]=%d: rows from more than one epoch",
							dop, count, sum, b, prefix[b])
					}
					if b < lo || b > hi {
						t.Fatalf("dop=%d: observed %d batches outside the acknowledged..sent window [%d,%d]", dop, b, lo, hi)
					}
				}
			}
			wg.Wait()

			// Quiesced: every layout and dop agrees byte-for-byte on the full
			// table, and the totals are exact.
			for _, dop := range []int{1, 2, 8} {
				if c, s := countAndSum(t, tbl, dop); c != batches*batchSize || s != prefix[batches] {
					t.Fatalf("final dop=%d: count=%d sum=%d, want %d/%d", dop, c, s, batches*batchSize, prefix[batches])
				}
			}
			q := Query{Select: []string{"K", "V"}}
			base, err := tbl.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := drainOrError(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, dop := range []int{2, 8} {
				rows, err := tbl.QueryExec(q, ExecOptions{Dop: dop})
				if err != nil {
					t.Fatal(err)
				}
				got, err := drainOrError(rows)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("dop=%d full scan differs from serial (%d vs %d bytes)", dop, len(got), len(want))
				}
			}
			if st := tbl.IngestStats(); st.Spills == 0 {
				t.Fatalf("consistency run never spilled: %+v", st)
			}
		})
	}
}

// TestIngestBatchSharedScan: a shared-scan batch over an ingest table
// pins one snapshot for the whole pass, so its members agree with each
// other and with solo execution.
func TestIngestBatchSharedScan(t *testing.T) {
	width := kvSchema(t).inner.Width()
	tbl := createKV(t, ColumnLayout, IngestOptions{
		MemtableBytes:    128 * width,
		DisableCompactor: true,
	})
	const n = 1000
	var wantSum int64
	for i := 0; i < n; i++ {
		if err := tbl.Insert(i, int(valOf(i))); err != nil {
			t.Fatal(err)
		}
		wantSum += valOf(i)
	}
	results, err := tbl.QueryBatch([]Query{
		{Aggs: []Agg{{Func: "count"}}},
		{Aggs: []Agg{{Func: "sum", Column: "V"}}},
		{Select: []string{"K"}, Where: []Cond{{Column: "K", Op: ">=", Value: n - 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([][]any, len(results))
	for i, r := range results {
		if !r.Next() {
			t.Fatalf("batch member %d: no rows: %v", i, r.Err())
		}
		if vals[i], err = r.Values(); err != nil {
			t.Fatal(err)
		}
		tail := 1
		for r.Next() {
			tail++
		}
		if i == 2 && tail != 5 {
			t.Fatalf("tail query saw %d rows, want 5", tail)
		}
		r.Close()
	}
	if c := vals[0][0].(int64); c != n {
		t.Fatalf("batched count = %d, want %d", c, n)
	}
	if s := vals[1][0].(int64); s != wantSum {
		t.Fatalf("batched sum = %d, want %d", s, wantSum)
	}
}

// TestIngestChaos: seeded fault injection over an ingest table with live
// runs. Every query either matches the fault-free baseline byte for byte
// or fails with a typed taxonomy error (run-file faults classify as
// corrupt or transient), and no goroutines leak.
func TestIngestChaos(t *testing.T) {
	defer fault.DisableChaos()
	width := kvSchema(t).inner.Width()
	tbl := createKV(t, ColumnLayout, IngestOptions{
		MemtableBytes:    512 * width,
		DisableCompactor: true, // keep runs alive so chaos hits run reads
	})
	const n = 8000
	for i := 0; i < n; i++ {
		if err := tbl.Insert(i, int(valOf(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := tbl.IngestStats(); st.LiveRuns < 2 {
		t.Fatalf("chaos needs live runs, have %+v", st)
	}
	queries := []Query{
		{Aggs: []Agg{{Func: "count"}, {Func: "sum", Column: "V"}}},
		{Select: []string{"K", "V"}, Where: []Cond{{Column: "V", Op: ">", Value: 90}}},
	}
	fault.DisableChaos()
	wants := make([][]byte, len(queries))
	for qi, q := range queries {
		rows, err := tbl.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if wants[qi], err = drainOrError(rows); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()
	succeeded, failed := 0, 0
	for _, seed := range []int64{1, 2, 3, 4} {
		for _, dop := range []int{1, 2, 8} {
			// Milder rates than the plain-table chaos suite: an ingest
			// query opens one reader per live run (~15 here), so the
			// per-query fault exposure is an order of magnitude higher
			// and hotter rates would fail every single query.
			fault.EnableChaos(fault.Config{
				Seed:        seed,
				ReadErrRate: 0.05,
				PersistRate: 0.25,
				TornRate:    0.01,
				FlipRate:    0.01,
			})
			for qi, q := range queries {
				rows, err := tbl.QueryExec(q, ExecOptions{Dop: dop})
				var got []byte
				if err == nil {
					got, err = drainOrError(rows)
				}
				if err != nil {
					failed++
					if !typedFailure(err) {
						t.Errorf("seed=%d dop=%d q%d: untyped failure: %v", seed, dop, qi, err)
					}
					continue
				}
				succeeded++
				if !bytes.Equal(got, wants[qi]) {
					t.Errorf("seed=%d dop=%d q%d: SILENT WRONG DATA under chaos", seed, dop, qi)
				}
			}
			fault.DisableChaos()
			awaitGoroutines(t, base)
		}
	}
	if succeeded == 0 || failed == 0 {
		t.Errorf("degenerate chaos run: %d succeeded, %d failed", succeeded, failed)
	}
}

// TestIngestReopen: the facade round-trip — CloseIngest flushes, a plain
// OpenTable detects the ingest directory, and every row survives.
func TestIngestReopen(t *testing.T) {
	width := kvSchema(t).inner.Width()
	dir := filepath.Join(t.TempDir(), "kv")
	tbl, err := CreateIngest(dir, kvSchema(t), PAXLayout, IngestOptions{
		Key:              "K",
		MemtableBytes:    64 * width,
		DisableCompactor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	var wantSum int64
	for i := 0; i < n; i++ {
		if err := tbl.Insert(i, int(valOf(i))); err != nil {
			t.Fatal(err)
		}
		wantSum += valOf(i)
	}
	if err := tbl.CloseIngest(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(n, 1); err == nil {
		t.Fatal("insert after CloseIngest succeeded")
	}

	re, err := OpenTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.CloseIngest()
	if !re.IsIngest() {
		t.Fatal("OpenTable did not detect the ingest directory")
	}
	if c, s := countAndSum(t, re, 2); c != n || s != wantSum {
		t.Fatalf("reopened: count=%d sum=%d, want %d/%d", c, s, n, wantSum)
	}
	if err := re.Fsck(); err != nil {
		t.Fatalf("reopened ingest table fails fsck: %v", err)
	}
	if err := re.Verify(); err != nil {
		t.Fatalf("reopened ingest table fails Verify: %v", err)
	}
}

// TestIngestReadOnlyErrors: write calls against a plain table fail with
// a clear error instead of panicking.
func TestIngestReadOnlyErrors(t *testing.T) {
	tbl := loadOrders(t, RowLayout, 100)
	if err := tbl.Insert(1); err == nil {
		t.Fatal("Insert on a read-only table succeeded")
	}
	if err := tbl.InsertBatch([][]any{{1}}); err == nil {
		t.Fatal("InsertBatch on a read-only table succeeded")
	}
	if err := tbl.Flush(); err == nil {
		t.Fatal("Flush on a read-only table succeeded")
	}
	if err := tbl.Compact(); err == nil {
		t.Fatal("Compact on a read-only table succeeded")
	}
	if tbl.IsIngest() {
		t.Fatal("plain table claims to be ingest")
	}
	if err := tbl.CloseIngest(); err != nil {
		t.Fatalf("CloseIngest on a read-only table: %v", err)
	}
	if st := tbl.IngestStats(); st != (IngestStats{}) {
		t.Fatalf("read-only IngestStats = %+v, want zero", st)
	}
}
