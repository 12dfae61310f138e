package harness

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
)

// sharedHarness caches one harness (and its measure-phase tables and
// experiment cells) across the experiment tests. It runs at the default
// measure scale, so the cells the shape tests run are the ones the
// reproduction golden renders.
var (
	sharedOnce sync.Once
	shared     *Harness
	sharedErr  error
)

func testHarness(t *testing.T) *Harness {
	t.Helper()
	sharedOnce.Do(func() {
		p := DefaultParams()
		dir, err := os.MkdirTemp("", "readopt-exp-test-")
		if err != nil {
			sharedErr = err
			return
		}
		p.DataDir = dir
		shared, sharedErr = New(p)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return shared
}

// elapsedAt returns the elapsed seconds of the series point with k
// attributes selected.
func elapsedAt(t *testing.T, s Series, k int) float64 {
	t.Helper()
	for _, p := range s.Points {
		if p.Query.AttrsSelected == k {
			return p.ElapsedSec
		}
	}
	t.Fatalf("series %s has no point at k=%d", s.Label, k)
	return 0
}

func findSeries(t *testing.T, r *Result, label string) Series {
	t.Helper()
	for _, s := range r.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s has no series %q (have %v)", r.ID, label, func() []string {
		var l []string
		for _, s := range r.Series {
			l = append(l, s.Label)
		}
		return l
	}())
	return Series{}
}

// TestFigure6Shape asserts the baseline experiment's headline properties:
// flat I/O-bound row store near 54s, a column store that grows with the
// selected bytes and crosses over near 85% of the tuple, and column CPU
// exceeding row CPU at full projection.
func TestFigure6Shape(t *testing.T) {
	h := testHarness(t)
	r, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	row := findSeries(t, r, "row")
	col := findSeries(t, r, "column")

	// Row store: insensitive to projectivity, pinned near 9.66GB/180MBps.
	for _, p := range row.Points {
		if p.ElapsedSec < 48 || p.ElapsedSec > 60 {
			t.Errorf("row elapsed at k=%d is %.1fs, want about 54s", p.Query.AttrsSelected, p.ElapsedSec)
		}
	}
	if spread := elapsedAt(t, row, 16) - elapsedAt(t, row, 1); spread > 1 || spread < -1 {
		t.Errorf("row store not flat: spread %.2fs", spread)
	}

	// Column store: monotone in selected bytes, large win at 1 attribute.
	prev := -1.0
	for _, p := range col.Points {
		if p.ElapsedSec < prev-0.2 {
			t.Errorf("column elapsed decreased at k=%d: %.2f after %.2f", p.Query.AttrsSelected, p.ElapsedSec, prev)
		}
		prev = p.ElapsedSec
	}
	if ratio := elapsedAt(t, row, 1) / elapsedAt(t, col, 1); ratio < 10 {
		t.Errorf("column at 1 attribute only %.1fx faster than row, want order of magnitude", ratio)
	}

	// Crossover between 75% and 100% of the tuple width (the paper
	// reports about 85%).
	crossK := -1
	for _, k := range lineitemKs {
		if elapsedAt(t, col, k) > elapsedAt(t, row, k) {
			crossK = k
			break
		}
	}
	if crossK < 0 {
		t.Fatal("column store never crossed over the row store")
	}
	crossBytes := 0
	for _, p := range col.Points {
		if p.Query.AttrsSelected == crossK {
			crossBytes = p.SelectedBytes
		}
	}
	if frac := float64(crossBytes) / 150; frac < 0.75 || frac > 1.0 {
		t.Errorf("crossover at %d selected bytes (%.0f%%), paper reports about 85%%", crossBytes, frac*100)
	}

	// CPU: column needs increasingly more CPU work and passes the row
	// store at full projection.
	rowCPU := row.Points[len(row.Points)-1].CPU.Total()
	colCPU := col.Points[len(col.Points)-1].CPU.Total()
	if colCPU <= rowCPU {
		t.Errorf("column CPU at 16 attrs (%.1fs) should exceed row CPU (%.1fs)", colCPU, rowCPU)
	}
	// Row system time near the paper's 2.5s.
	if sys := row.Points[0].CPU.Sys; sys < 1.5 || sys > 4 {
		t.Errorf("row sys time = %.1fs, want about 2.5s", sys)
	}
}

// TestFigure7Shape: dropping selectivity to 0.1% leaves I/O unchanged but
// flattens the column store's CPU growth — the later scan nodes process
// one value in a thousand.
func TestFigure7Shape(t *testing.T) {
	h := testHarness(t)
	r7, err := h.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	r6, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	col7 := findSeries(t, r7, "column")
	col6 := findSeries(t, r6, "column")
	row7 := findSeries(t, r7, "row")
	row6 := findSeries(t, r6, "row")

	// I/O unchanged: elapsed times match the 10% case.
	for i := range col7.Points {
		if d := col7.Points[i].ElapsedSec - col6.Points[i].ElapsedSec; d > 1.5 || d < -1.5 {
			t.Errorf("elapsed changed with selectivity at k=%d: %.1f vs %.1f",
				col7.Points[i].Query.AttrsSelected, col7.Points[i].ElapsedSec, col6.Points[i].ElapsedSec)
		}
	}
	// Row CPU unchanged (it examines every tuple regardless).
	if d := row7.Points[15].CPU.Total() - row6.Points[15].CPU.Total(); d > 0.5 || d < -1.5 {
		t.Errorf("row CPU changed with selectivity: %.1f vs %.1f", row7.Points[15].CPU.Total(), row6.Points[15].CPU.Total())
	}
	// Column CPU at 16 attributes collapses versus the 10% case.
	if c7, c6 := col7.Points[15].CPU.Total(), col6.Points[15].CPU.Total(); c7 > 0.75*c6 {
		t.Errorf("column CPU at 0.1%% (%.1fs) should be far below 10%% (%.1fs)", c7, c6)
	}
	// And the user-mode growth from 1 to 16 attributes is small:
	// additional attributes add negligible CPU work (system time still
	// grows, since it follows the I/O performed, as in the paper's
	// Figure 6 discussion).
	usr := func(p Point) float64 { return p.CPU.Total() - p.CPU.Sys }
	growth := usr(col7.Points[15]) - usr(col7.Points[0])
	if growth > 1.0 {
		t.Errorf("column user CPU grew %.1fs from 1 to 16 attrs at 0.1%% selectivity, want nearly flat", growth)
	}
}

// TestFigure8Shape: the narrow ORDERS table. Row flat near
// 1.92GB/180MBps ≈ 10.7s; column crosses over before full projection and
// costs more CPU than the row store at full projection; memory-transfer
// time vanishes for both.
func TestFigure8Shape(t *testing.T) {
	h := testHarness(t)
	r, err := h.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	row := findSeries(t, r, "row")
	col := findSeries(t, r, "column")
	for _, p := range row.Points {
		if p.ElapsedSec < 9.5 || p.ElapsedSec > 13 {
			t.Errorf("row elapsed = %.1fs at k=%d, want about 10.7s", p.ElapsedSec, p.Query.AttrsSelected)
		}
	}
	if elapsedAt(t, col, 7) <= elapsedAt(t, row, 7) {
		t.Error("column at full projection should lose to row on ORDERS")
	}
	if elapsedAt(t, col, 1) >= elapsedAt(t, row, 1)/2 {
		t.Error("column at 1 attribute should win clearly on ORDERS")
	}
	// Memory delays are no longer visible in either system: usr-L2 is a
	// small fraction of CPU time.
	for _, s := range []Series{row, col} {
		p := s.Points[len(s.Points)-1]
		if p.CPU.UsrL2 > 0.25*p.CPU.Total() {
			t.Errorf("%s usr-L2 = %.2fs of %.2fs; narrow tuples should not be memory-bound", s.Label, p.CPU.UsrL2, p.CPU.Total())
		}
	}
	if col.Points[6].CPU.Total() <= row.Points[6].CPU.Total() {
		t.Error("column CPU at full projection should exceed row CPU on ORDERS")
	}
}

// TestFigure9Shape: compression. The crossover moves left of Figure 8's;
// FOR-delta costs more CPU but less I/O than plain FOR; the row store
// shows a small CPU increase with projectivity (decompression).
func TestFigure9Shape(t *testing.T) {
	h := testHarness(t)
	r9, err := h.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	r8, err := h.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	row := findSeries(t, r9, "row")
	delta := findSeries(t, r9, "column FOR-delta")
	forPlain := findSeries(t, r9, "column FOR")

	// Row store reads 12/32 of the uncompressed bytes.
	uncompressedRow := findSeries(t, r8, "row")
	ratio := elapsedAt(t, row, 7) / elapsedAt(t, uncompressedRow, 7)
	if ratio < 0.3 || ratio > 0.5 {
		t.Errorf("compressed row scan ratio = %.2f, want about 12/32", ratio)
	}

	// Crossover selected-byte fraction moves left versus Figure 8.
	crossFrac := func(col, row Series, width float64) float64 {
		for i, p := range col.Points {
			if p.ElapsedSec > row.Points[i].ElapsedSec {
				return float64(p.SelectedBytes) / width
			}
		}
		return 1.1
	}
	f8 := crossFrac(findSeries(t, r8, "column"), uncompressedRow, 32)
	f9 := crossFrac(delta, row, 32)
	if f9 >= f8 {
		t.Errorf("compression should move the crossover left: fig8 %.2f vs fig9 %.2f", f8, f9)
	}

	// FOR-delta: more CPU, less I/O than FOR once the key column is
	// selected.
	dp, fp := delta.Points[6], forPlain.Points[6]
	if dp.CPU.Total() <= fp.CPU.Total() {
		t.Errorf("FOR-delta CPU (%.2fs) should exceed FOR CPU (%.2fs)", dp.CPU.Total(), fp.CPU.Total())
	}
	if dp.IOBytes >= fp.IOBytes {
		t.Errorf("FOR-delta I/O (%d) should be below FOR I/O (%d)", dp.IOBytes, fp.IOBytes)
	}

	// Row store shows a small decompression CPU increase from 1 to 7
	// attributes.
	if inc := row.Points[6].CPU.UsrUop - row.Points[0].CPU.UsrUop; inc <= 0 {
		t.Errorf("compressed row store usr-uop should grow with projectivity, got %+.2fs", inc)
	}
}

// TestFigure10Shape: the column system degrades monotonically as the
// prefetch depth shrinks; the row system is not affected.
func TestFigure10Shape(t *testing.T) {
	h := testHarness(t)
	r, err := h.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	row := findSeries(t, r, "row")
	for i := 1; i < len(figure10Depths); i++ {
		shallower := findSeries(t, r, "column-"+itoa(figure10Depths[i-1]))
		deeper := findSeries(t, r, "column-"+itoa(figure10Depths[i]))
		if elapsedAt(t, deeper, 7) >= elapsedAt(t, shallower, 7) {
			t.Errorf("depth %d (%.1fs) should beat depth %d (%.1fs)",
				figure10Depths[i], elapsedAt(t, deeper, 7), figure10Depths[i-1], elapsedAt(t, shallower, 7))
		}
	}
	// Deep prefetch keeps the column system within ~30% of the row
	// system at full projection; shallow prefetch is several times worse.
	col48 := findSeries(t, r, "column-48")
	col2 := findSeries(t, r, "column-2")
	if x := elapsedAt(t, col48, 7) / elapsedAt(t, row, 7); x > 1.4 {
		t.Errorf("column-48 %.1fx row at full projection, want close", x)
	}
	if x := elapsedAt(t, col2, 7) / elapsedAt(t, row, 7); x < 2.5 {
		t.Errorf("column-2 only %.1fx row, want several times worse", x)
	}
}

// TestFigure11Shape: under a competing scan the aggressive column system
// outperforms the row system in every panel, and the "slow" variant loses
// that advantage.
func TestFigure11Shape(t *testing.T) {
	h := testHarness(t)
	results, err := h.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(figure11Depths) {
		t.Fatalf("Figure11 produced %d panels", len(results))
	}
	for i, r := range results {
		d := figure11Depths[i]
		row := findSeries(t, r, "row-"+itoa(d))
		col := findSeries(t, r, "column-"+itoa(d))
		slow := findSeries(t, r, "column-"+itoa(d)+" slow")
		for _, k := range ordersKs {
			if elapsedAt(t, col, k) >= elapsedAt(t, row, k) {
				t.Errorf("depth %d k=%d: column (%.1fs) should beat row (%.1fs) under competition",
					d, k, elapsedAt(t, col, k), elapsedAt(t, row, k))
			}
		}
		if elapsedAt(t, slow, 7) <= elapsedAt(t, col, 7) {
			t.Errorf("depth %d: slow column (%.1fs) should lose to the aggressive column (%.1fs)",
				d, elapsedAt(t, slow, 7), elapsedAt(t, col, 7))
		}
		// Competition slows everything relative to Figure 8's solo row
		// scan time (about 10.7s).
		if elapsedAt(t, row, 7) < 12 {
			t.Errorf("depth %d: row under competition (%.1fs) should be well above the solo 10.7s", d, elapsedAt(t, row, 7))
		}
	}
}

// TestTable1Trends asserts the measured trend directions match the
// paper's Table 1 arrows.
func TestTable1Trends(t *testing.T) {
	h := testHarness(t)
	trends, err := h.Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]int{
		"selecting more attributes (column store)": {+1, +1, +1},
		"decreased selectivity":                    {0, -1, -1},
		"narrower tuples":                          {-1, -1, -1},
		"compression":                              {-1, -1, +1},
		"larger prefetch":                          {-1, 0, 0},
		"more disk traffic":                        {+1, 0, 0},
	}
	seen := map[string]bool{}
	for _, tr := range trends {
		w, ok := want[tr.Parameter]
		if !ok {
			t.Errorf("unexpected trend row %q", tr.Parameter)
			continue
		}
		seen[tr.Parameter] = true
		if got := [3]int{tr.Disk, tr.Mem, tr.CPU}; got != w {
			t.Errorf("%s: trends %v, want %v", tr.Parameter, got, w)
		}
	}
	for p := range want {
		if !seen[p] {
			t.Errorf("missing trend row %q", p)
		}
	}
}

// TestFormatters exercises the text renderers.
func TestFormatters(t *testing.T) {
	h := testHarness(t)
	r, err := h.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"FIG8", "row [s]", "column [s]", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteResult output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteBreakdowns(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "usr-uop") {
		t.Error("WriteBreakdowns missing columns")
	}
	cells, err := h.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteFigure2(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cpdb") {
		t.Error("WriteFigure2 missing axis label")
	}
	trends, err := h.Table1()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteTable1(&buf, trends); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "compression") {
		t.Error("WriteTable1 missing rows")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestExtensionPAXShape: PAX matches the row store's elapsed time (same
// I/O) while using less CPU than the row store for narrow projections.
func TestExtensionPAXShape(t *testing.T) {
	h := testHarness(t)
	r, err := h.ExtensionPAX()
	if err != nil {
		t.Fatal(err)
	}
	row := findSeries(t, r, "row")
	pax := findSeries(t, r, "pax")
	col := findSeries(t, r, "column")
	for i := range pax.Points {
		d := pax.Points[i].ElapsedSec - row.Points[i].ElapsedSec
		if d > 1.5 || d < -1.5 {
			t.Errorf("PAX elapsed %.1fs differs from row %.1fs at k=%d",
				pax.Points[i].ElapsedSec, row.Points[i].ElapsedSec, pax.Points[i].Query.AttrsSelected)
		}
	}
	// At 1 attribute, PAX CPU is well below row CPU (no 150-byte rows
	// through the cache) and close to the column store's user time.
	paxUsr := pax.Points[0].CPU.Total() - pax.Points[0].CPU.Sys
	rowUsr := row.Points[0].CPU.Total() - row.Points[0].CPU.Sys
	if paxUsr >= rowUsr {
		t.Errorf("PAX user CPU (%.2fs) should be below row (%.2fs) at 1 attribute", paxUsr, rowUsr)
	}
	// But PAX pays the row store's I/O: at 1 attribute the column system
	// is still an order of magnitude faster end to end.
	if col.Points[0].ElapsedSec*5 > pax.Points[0].ElapsedSec {
		t.Errorf("column (%.1fs) should far outrun PAX (%.1fs) at 1 attribute",
			col.Points[0].ElapsedSec, pax.Points[0].ElapsedSec)
	}
}

func TestTable2Glossary(t *testing.T) {
	h := testHarness(t)
	rows := h.Table2()
	if len(rows) != 4 {
		t.Fatalf("Table2 has %d rows, want 4", len(rows))
	}
	var buf bytes.Buffer
	if err := WriteTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"MemBytesCycle", "cpdb", "instr/tuple", "18"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	h := testHarness(t)
	r, err := h.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+7 {
		t.Fatalf("CSV has %d lines, want header + 7 points:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "selected_bytes,row_elapsed_s,row_cpu_s,column_elapsed_s") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if err := WriteCSV(&buf, &Result{ID: "empty"}); err == nil {
		t.Error("empty result accepted")
	}
}
