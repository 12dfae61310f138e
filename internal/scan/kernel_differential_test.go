package scan

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/readoptdb/readopt/internal/aio"
	"github.com/readoptdb/readopt/internal/compress"
	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/fault"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/schema"
)

// This file is the kernel differential suite: for every codec, across
// bit widths and selectivities {0, 0.01, 0.5, 1}, the vectorized
// operate-on-compressed drive must produce byte-identical output to the
// scalar value-at-a-time drive and to a pure-Go reference over the raw
// tuples — full scans and ranged (partitioned) scans alike. CI runs the
// package under -race and -tags readoptdebug, so the suite also locks
// the kernels' memory discipline.

const (
	diffRows     = 4000
	diffPageSize = 512
	diffSeed     = 99
)

// diffTable is one synthetic column-store table held in memory: raw
// tuples plus encoded pages per column.
type diffTable struct {
	sch   *schema.Schema
	dicts map[int]*compress.Dictionary
	rows  []byte           // raw tuples, sch.Width() bytes each
	n     int64            // row count
	pages map[int][][]byte // encoded pages per attribute
}

// buildDiffTable generates diffRows tuples via gen (writing one raw
// tuple) and encodes every attribute's column pages.
func buildDiffTable(t *testing.T, sch *schema.Schema, dicts map[int]*compress.Dictionary, gen func(i int, rng *rand.Rand, tuple []byte)) *diffTable {
	t.Helper()
	return buildDiffTableRows(t, sch, dicts, diffRows, gen)
}

// buildDiffTableRows is buildDiffTable for n rows.
func buildDiffTableRows(t testing.TB, sch *schema.Schema, dicts map[int]*compress.Dictionary, n int, gen func(i int, rng *rand.Rand, tuple []byte)) *diffTable {
	t.Helper()
	width := sch.Width()
	rows := make([]byte, n*width)
	rng := rand.New(rand.NewSource(diffSeed))
	for i := 0; i < n; i++ {
		gen(i, rng, rows[i*width:(i+1)*width])
	}
	pages := map[int][][]byte{}
	for a, attr := range sch.Attrs {
		b, err := page.NewColBuilder(attr, diffPageSize, dicts[a])
		if err != nil {
			t.Fatalf("column %d: %v", a, err)
		}
		var pgs [][]byte
		flush := func() {
			pg, err := b.Flush(uint32(len(pgs)))
			if err != nil {
				t.Fatalf("column %d flush: %v", a, err)
			}
			pgs = append(pgs, append([]byte(nil), pg...))
		}
		off := sch.Offset(a)
		for i := 0; i < n; i++ {
			b.Add(rows[i*width+off : i*width+off+attr.Type.Size])
			if b.Full() {
				flush()
			}
		}
		if b.Count() > 0 {
			flush()
		}
		pages[a] = pgs
	}
	return &diffTable{sch: sch, dicts: dicts, rows: rows, n: int64(n), pages: pages}
}

// reference computes the expected output over the raw tuples.
func (d *diffTable) reference(t testing.TB, preds []exec.Predicate, proj []int, startRow, endRow int64) []byte {
	t.Helper()
	for i := range preds {
		if err := preds[i].Validate(d.sch); err != nil {
			t.Fatal(err)
		}
	}
	if endRow <= 0 {
		endRow = d.n
	}
	width := d.sch.Width()
	var out []byte
	for i := startRow; i < endRow; i++ {
		tuple := d.rows[i*int64(width) : (i+1)*int64(width)]
		ok := true
		for k := range preds {
			if !preds[k].Eval(d.sch, tuple) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, a := range proj {
			off := d.sch.Offset(a)
			out = append(out, tuple[off:off+d.sch.Attrs[a].Type.Size]...)
		}
	}
	return out
}

// colRun is one ColScanner run over a diffTable's in-memory pages.
type colRun struct {
	preds      []exec.Predicate
	proj       []int
	scalar     bool
	start, end int64 // row range; 0, 0 scans everything
	// keep, when non-nil, is a zone-map keep set: it is clipped to the
	// row range and each column reader delivers only the page section
	// covering it, as the plan layer opens it.
	keep []RowRange
}

// run executes one ColScanner over the in-memory pages and returns its
// output and its Counters.
func (d *diffTable) run(r colRun) ([]byte, cpumodel.Counters, error) {
	var counters cpumodel.Counters
	s, err := d.scanner(r, &counters)
	if err != nil {
		return nil, counters, err
	}
	got, err := exec.Collect(s)
	return got, counters, err
}

// scanner builds the ColScanner of one run. Ranged scans slice each
// column's pages to the section the partition contract prescribes:
// streaming starts at the page containing start for that column's
// geometry.
func (d *diffTable) scanner(r colRun, counters *cpumodel.Counters) (*ColScanner, error) {
	need := map[int]bool{}
	for _, p := range r.preds {
		need[p.Attr] = true
	}
	for _, a := range r.proj {
		need[a] = true
	}
	keep := ClipKeep(r.keep, r.start, r.end)
	readers := map[int]aio.Reader{}
	var sections map[int]PageSection
	if keep != nil {
		sections = map[int]PageSection{}
	}
	for a := range need {
		pgs := d.pages[a]
		capacity := int64(page.ColGeometry(d.sch.Attrs[a], diffPageSize).Capacity())
		lo, hi := r.start/capacity, int64(len(pgs))
		if r.end > 0 {
			hi = (r.end + capacity - 1) / capacity
		}
		if keep != nil {
			if len(keep) > 0 {
				lo = max(lo, keep[0].Lo/capacity)
				hi = min(hi, (keep[len(keep)-1].Hi-1)/capacity+1)
			} else {
				hi = lo
			}
			sections[a] = PageSection{Start: lo, Pages: hi - lo}
		}
		units := make([][]byte, hi-lo)
		copy(units, pgs[lo:hi])
		readers[a] = &fault.ScriptReader{Units: units}
	}
	return NewColScanner(ColConfig{
		Schema:   d.sch,
		PageSize: diffPageSize,
		Readers:  readers,
		Dicts:    d.dicts,
		Preds:    r.preds,
		Proj:     r.proj,
		Counters: counters,
		StartRow: r.start,
		EndRow:   r.end,
		Keep:     keep,
		Sections: sections,
		Scalar:   r.scalar,
	})
}

// scan runs one ColScanner over the in-memory pages and collects its
// output, failing the test on error.
func (d *diffTable) scan(t *testing.T, preds []exec.Predicate, proj []int, scalar bool, startRow, endRow int64) []byte {
	t.Helper()
	got, _, err := d.run(colRun{preds: preds, proj: proj, scalar: scalar, start: startRow, end: endRow})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkAgreement runs the scalar drive, the vectorized drive and the
// reference over the same predicate/projection and requires all three
// byte-identical — then repeats on an unaligned interior row range, the
// shape every parallel worker sees.
func checkAgreement(t *testing.T, d *diffTable, preds []exec.Predicate, proj []int) {
	t.Helper()
	want := d.reference(t, preds, proj, 0, 0)
	scalar := d.scan(t, preds, proj, true, 0, 0)
	if !bytes.Equal(scalar, want) {
		t.Fatalf("scalar scan differs from reference (%d vs %d bytes)", len(scalar), len(want))
	}
	vec := d.scan(t, preds, proj, false, 0, 0)
	if !bytes.Equal(vec, want) {
		t.Fatalf("vectorized scan differs from reference (%d vs %d bytes)", len(vec), len(want))
	}

	startRow, endRow := int64(37), int64(diffRows-91)
	wantR := d.reference(t, preds, proj, startRow, endRow)
	scalarR := d.scan(t, preds, proj, true, startRow, endRow)
	if !bytes.Equal(scalarR, wantR) {
		t.Fatalf("ranged scalar scan differs from reference (%d vs %d bytes)", len(scalarR), len(wantR))
	}
	vecR := d.scan(t, preds, proj, false, startRow, endRow)
	if !bytes.Equal(vecR, wantR) {
		t.Fatalf("ranged vectorized scan differs from reference (%d vs %d bytes)", len(vecR), len(wantR))
	}
}

func putVal(tuple []byte, off int, v int32) {
	binary.LittleEndian.PutUint32(tuple[off:], uint32(v))
}

// selPreds names the suite's selectivity grid for an integer column
// with values uniform in [lo, hi).
func intSelPreds(attr int, lo, hi int32) map[string][]exec.Predicate {
	span := int64(hi) - int64(lo)
	one := lo + int32(span/100)
	if one <= lo {
		one = lo + 1
	}
	return map[string][]exec.Predicate{
		"sel0":    {exec.IntPred(attr, exec.Lt, lo)},
		"sel0.01": {exec.IntPred(attr, exec.Lt, one)},
		"sel0.5":  {exec.IntPred(attr, exec.Lt, lo+int32(span/2))},
		"sel1":    {exec.IntPred(attr, exec.Lt, hi)},
	}
}

// TestKernelDifferentialInt covers every integer codec and a spread of
// bit widths. Column 0 carries the codec under test, column 1 a raw
// tag column so projections exercise the materialize path next to a
// scalar-attached column.
func TestKernelDifferentialInt(t *testing.T) {
	cases := []struct {
		name   string
		attr   schema.Attribute
		lo, hi int32 // generated value range [lo, hi)
		sorted bool  // FOR-delta needs gently increasing values
	}{
		{"raw-int", schema.Attribute{Name: "V", Type: schema.IntType}, -500, 500, false},
		{"bitpack-1", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.BitPack, Bits: 1}, 0, 2, false},
		{"bitpack-3", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.BitPack, Bits: 3}, 0, 8, false},
		{"bitpack-10", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.BitPack, Bits: 10}, 0, 1000, false},
		{"bitpack-14", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.BitPack, Bits: 14}, 0, 16000, false},
		{"bitpack-31", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.BitPack, Bits: 31}, 0, 1 << 30, false},
		{"for-5", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.FOR, Bits: 5}, 7000, 7032, false},
		{"for-16", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.FOR, Bits: 16}, -30000, 30000, false},
		{"fordelta-8", schema.Attribute{Name: "V", Type: schema.IntType, Enc: schema.FORDelta, Bits: 8}, 0, 12000, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sch := schema.MustNew("DIFF", []schema.Attribute{
				tc.attr,
				{Name: "TAG", Type: schema.IntType},
			})
			next := tc.lo
			d := buildDiffTable(t, sch, nil, func(i int, rng *rand.Rand, tuple []byte) {
				v := tc.lo + int32(rng.Int63n(int64(tc.hi)-int64(tc.lo)))
				if tc.sorted {
					v = next
					next += int32(rng.Intn(4)) // deltas fit the 8-bit code
				}
				putVal(tuple, 0, v)
				putVal(tuple, 4, int32(rng.Intn(1<<20)))
			})
			for name, preds := range intSelPreds(0, tc.lo, tc.hi) {
				t.Run(name, func(t *testing.T) {
					checkAgreement(t, d, preds, []int{0, 1})
				})
			}
			// Projection variants at one selectivity: predicate column not
			// projected (no materialize), and projected alone.
			preds := intSelPreds(0, tc.lo, tc.hi)["sel0.5"]
			t.Run("proj-tag-only", func(t *testing.T) { checkAgreement(t, d, preds, []int{1}) })
			t.Run("proj-val-only", func(t *testing.T) { checkAgreement(t, d, preds, []int{0}) })
			t.Run("no-preds", func(t *testing.T) { checkAgreement(t, d, nil, []int{0, 1}) })
		})
	}
}

// TestKernelDifferentialText covers the text codecs, where only
// equality translates into code space: raw text, byte-aligned packed
// text, and dictionary text. The selectivity grid comes from the value
// distribution: an absent literal (0), a rare value (~0.01), a common
// value (~0.5), and <> absent (1).
func TestKernelDifferentialText(t *testing.T) {
	pad := func(s string, n int) []byte {
		b := bytes.Repeat([]byte{' '}, n)
		copy(b, s)
		return b
	}
	common, rare := "aa", "zq" // rare appears ~1% of rows
	cases := []struct {
		name string
		attr schema.Attribute
		dict bool
	}{
		{"raw-text-5", schema.Attribute{Name: "V", Type: schema.TextType(5)}, false},
		{"bitpack-text-16", schema.Attribute{Name: "V", Type: schema.TextType(7), Enc: schema.BitPack, Bits: 16}, false},
		{"dict-text-3", schema.Attribute{Name: "V", Type: schema.TextType(9), Enc: schema.Dict, Bits: 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			size := tc.attr.Type.Size
			alphabet := [][]byte{pad(common, size), pad("bb", size), pad("cc", size), pad(rare, size)}
			var dicts map[int]*compress.Dictionary
			if tc.dict {
				dict := compress.NewDictionary(size)
				for _, v := range alphabet {
					dict.Add(v)
				}
				dicts = map[int]*compress.Dictionary{0: dict}
			}
			sch := schema.MustNew("DIFF", []schema.Attribute{
				tc.attr,
				{Name: "TAG", Type: schema.IntType},
			})
			d := buildDiffTable(t, sch, dicts, func(i int, rng *rand.Rand, tuple []byte) {
				var v []byte
				switch r := rng.Intn(200); {
				case r < 2:
					v = alphabet[3] // rare, ~1%
				case r < 101:
					v = alphabet[0] // common, ~50%
				case r < 151:
					v = alphabet[1]
				default:
					v = alphabet[2]
				}
				copy(tuple, v)
				putVal(tuple, size, int32(rng.Intn(1<<20)))
			})
			sels := map[string][]exec.Predicate{
				"sel0":    {exec.TextPred(0, exec.Eq, "zz")}, // absent from the alphabet
				"sel0.01": {exec.TextPred(0, exec.Eq, rare)},
				"sel0.5":  {exec.TextPred(0, exec.Eq, common)},
				"sel1":    {exec.TextPred(0, exec.Ne, "zz")},
			}
			for name, preds := range sels {
				t.Run(name, func(t *testing.T) {
					checkAgreement(t, d, preds, []int{0, 1})
				})
			}
		})
	}
}

// TestKernelDifferentialConjunction drives the RefineSel path: two
// predicates on two differently encoded columns, so the second match
// refines the first selection, plus a third untranslatable predicate
// column (FOR-delta) forcing the mixed decode fallback.
func TestKernelDifferentialConjunction(t *testing.T) {
	sch := schema.MustNew("DIFF", []schema.Attribute{
		{Name: "A", Type: schema.IntType, Enc: schema.BitPack, Bits: 10},
		{Name: "B", Type: schema.IntType, Enc: schema.FOR, Bits: 12},
		{Name: "C", Type: schema.IntType, Enc: schema.FORDelta, Bits: 8},
		{Name: "TAG", Type: schema.TextType(5)},
	})
	next := int32(0)
	d := buildDiffTable(t, sch, nil, func(i int, rng *rand.Rand, tuple []byte) {
		putVal(tuple, 0, int32(rng.Intn(1000)))
		putVal(tuple, 4, 5000+int32(rng.Intn(4000)))
		putVal(tuple, 8, next)
		next += int32(rng.Intn(3))
		copy(tuple[12:], []byte{byte('a' + rng.Intn(26)), 'x', ' ', ' ', ' '})
	})
	two := []exec.Predicate{
		exec.IntPred(0, exec.Lt, 500),
		exec.IntPred(1, exec.Ge, 7000),
	}
	t.Run("two-kernel-preds", func(t *testing.T) {
		checkAgreement(t, d, two, []int{0, 1, 3})
	})
	t.Run("kernel-plus-fallback-pred", func(t *testing.T) {
		mixed := append(append([]exec.Predicate{}, two...), exec.IntPred(2, exec.Lt, next/2))
		checkAgreement(t, d, mixed, []int{0, 2, 3})
	})
	t.Run("all-ops", func(t *testing.T) {
		for _, op := range []exec.CmpOp{exec.Lt, exec.Le, exec.Eq, exec.Ne, exec.Ge, exec.Gt} {
			checkAgreement(t, d, []exec.Predicate{exec.IntPred(0, op, 512)}, []int{0, 3})
		}
	})
}
