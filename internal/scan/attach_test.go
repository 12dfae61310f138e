package scan

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/readoptdb/readopt/internal/compress"
	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/fault"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/schema"
)

// This file is the payload differential suite: every codec of the
// kernel suite sits in a PAYLOAD column — an inner scan node attached by
// position — behind a raw driving column whose predicate sets the
// selectivity. Scalar (per-position attach), vectorized (per-page
// batched attach) and the pure-Go reference must agree byte for byte on
// full, ranged and keep-set scans, and the vectorized scan's Counters
// are pinned for a fixed subset of cases.

// payloadCodec is one codec under test in the payload slot.
type payloadCodec struct {
	name   string
	attr   schema.Attribute
	lo, hi int32 // integer values uniform in [lo, hi); unused for text
	sorted bool  // FOR-delta: non-decreasing values in small steps
	dict   bool  // text values live in a dictionary
}

func (c payloadCodec) text() bool { return c.attr.Type.Kind == schema.Text }

func intAttr(enc schema.Encoding, bits int) schema.Attribute {
	return schema.Attribute{Name: "P", Type: schema.IntType, Enc: enc, Bits: bits}
}

var payloadCodecs = []payloadCodec{
	{name: "raw-int", attr: intAttr(schema.None, 0), lo: -500, hi: 500},
	{name: "bitpack-1", attr: intAttr(schema.BitPack, 1), lo: 0, hi: 2},
	{name: "bitpack-3", attr: intAttr(schema.BitPack, 3), lo: 0, hi: 8},
	{name: "bitpack-10", attr: intAttr(schema.BitPack, 10), lo: 0, hi: 1000},
	{name: "bitpack-14", attr: intAttr(schema.BitPack, 14), lo: 0, hi: 16000},
	{name: "bitpack-31", attr: intAttr(schema.BitPack, 31), lo: 0, hi: 1 << 30},
	{name: "for-5", attr: intAttr(schema.FOR, 5), lo: 7000, hi: 7032},
	{name: "for-16", attr: intAttr(schema.FOR, 16), lo: -30000, hi: 30000},
	{name: "fordelta-8", attr: intAttr(schema.FORDelta, 8), lo: 0, hi: 6000, sorted: true},
	{name: "raw-text-5", attr: schema.Attribute{Name: "P", Type: schema.TextType(5)}},
	{name: "bitpack-text-16", attr: schema.Attribute{Name: "P", Type: schema.TextType(7), Enc: schema.BitPack, Bits: 16}},
	{name: "dict-text-3", attr: schema.Attribute{Name: "P", Type: schema.TextType(9), Enc: schema.Dict, Bits: 3}, dict: true},
}

// payloadAlphabet is the text codecs' value set: "aa" is common (~50 %).
func payloadAlphabet(size int) [][]byte {
	var out [][]byte
	for _, s := range []string{"aa", "bb", "cc", "zq"} {
		b := bytes.Repeat([]byte{' '}, size)
		copy(b, s)
		out = append(out, b)
	}
	return out
}

// buildPayloadTable builds D (raw int uniform in [0, 1000), the driving
// predicate column), P (the codec under test) and TAG (a raw payload that
// follows P, so P's inner predicate compacts rows TAG then attaches to).
func buildPayloadTable(t testing.TB, c payloadCodec, rows int) *diffTable {
	t.Helper()
	sch := schema.MustNew("ATTACH", []schema.Attribute{
		{Name: "D", Type: schema.IntType},
		c.attr,
		{Name: "TAG", Type: schema.IntType},
	})
	size := c.attr.Type.Size
	alphabet := payloadAlphabet(size)
	var dicts map[int]*compress.Dictionary
	if c.dict {
		dict := compress.NewDictionary(size)
		for _, v := range alphabet {
			dict.Add(v)
		}
		dicts = map[int]*compress.Dictionary{1: dict}
	}
	next := c.lo
	return buildDiffTableRows(t, sch, dicts, rows, func(i int, rng *rand.Rand, tuple []byte) {
		putVal(tuple, 0, int32(rng.Intn(1000)))
		switch {
		case c.text():
			v := alphabet[0]
			if r := rng.Intn(100); r >= 50 {
				v = alphabet[1+r%3]
			}
			copy(tuple[4:], v)
		case c.sorted:
			putVal(tuple, 4, next)
			next += int32(rng.Intn(4))
		default:
			putVal(tuple, 4, c.lo+int32(rng.Int63n(int64(c.hi)-int64(c.lo))))
		}
		putVal(tuple, 4+size, int32(rng.Intn(1<<20)))
	})
}

// innerPred is a predicate on the payload column that keeps about half
// its rows.
func (c payloadCodec) innerPred() exec.Predicate {
	if c.text() {
		return exec.TextPred(1, exec.Eq, "aa")
	}
	return exec.IntPred(1, exec.Lt, c.lo+(c.hi-c.lo)/2)
}

// drivingSels is the selectivity grid of the driving column D.
var drivingSels = []struct {
	name string
	lit  int32
}{{"sel0", 0}, {"sel0.01", 10}, {"sel0.5", 500}, {"sel1", 1000}}

// payloadKeep late-skips whole payload pages: two ranges with a gap, so
// pages inside them that no qualifying position lands on are crossed
// undecoded.
var payloadKeep = []RowRange{{Lo: 150, Hi: 1400}, {Lo: 2300, Hi: 3700}}

// referenceKeep is the reference output restricted to the keep set
// clipped to [start, end).
func (d *diffTable) referenceKeep(t testing.TB, preds []exec.Predicate, proj []int, start, end int64, keep []RowRange) []byte {
	t.Helper()
	var out []byte
	for _, r := range ClipKeep(keep, start, end) {
		out = append(out, d.reference(t, preds, proj, r.Lo, r.Hi)...)
	}
	return out
}

func innerName(inner bool) string {
	if inner {
		return "inner-pred"
	}
	return "no-inner-pred"
}

func TestAttachDifferentialPayload(t *testing.T) {
	for _, c := range payloadCodecs {
		t.Run(c.name, func(t *testing.T) {
			d := buildPayloadTable(t, c, diffRows)
			for _, sel := range drivingSels {
				for _, inner := range []bool{false, true} {
					preds := c.preds(sel.lit, inner)
					t.Run(sel.name+"/"+innerName(inner), func(t *testing.T) {
						checkAgreement(t, d, preds, payloadProj)
						for _, r := range []colRun{payloadRun(preds, "keep-full"), payloadRun(preds, "keep-ranged")} {
							got, counters, err := d.run(r)
							if err != nil {
								t.Fatal(err)
							}
							if want := d.referenceKeep(t, preds, payloadProj, r.start, r.end, r.keep); !bytes.Equal(got, want) {
								t.Fatalf("keep scan [%d, %d) differs from reference (%d vs %d bytes)", r.start, r.end, len(got), len(want))
							}
							if sel.name == "sel0.01" && len(d.pages[1]) >= 20 && counters.PagesLateSkipped == 0 {
								t.Errorf("keep scan [%d, %d) late-skipped no payload page of %d", r.start, r.end, len(d.pages[1]))
							}
						}
					})
				}
			}
		})
	}
}

// payloadProj projects the payload first, so P and TAG are both attached.
var payloadProj = []int{1, 2, 0}

// preds is the driving predicate at lit, plus P's own when inner.
func (c payloadCodec) preds(lit int32, inner bool) []exec.Predicate {
	preds := []exec.Predicate{exec.IntPred(0, exec.Lt, lit)}
	if inner {
		preds = append(preds, c.innerPred())
	}
	return preds
}

// payloadRun is the vectorized run of one scan shape: "full", or the
// keep set over the full ("keep-full") or an unaligned interior row
// range ("keep-ranged").
func payloadRun(preds []exec.Predicate, shape string) colRun {
	r := colRun{preds: preds, proj: payloadProj}
	if shape != "full" {
		r.keep = payloadKeep
	}
	if shape == "keep-ranged" {
		r.start, r.end = 37, diffRows-91
	}
	return r
}

// attachCountGolden pins the vectorized scan's Counters for a subset of
// the grid at the values the per-position attach charged when the
// vectorized drive still used it: the batched attach must charge the
// same logical work in bulk, or every figure moves.
var attachCountGolden = []struct {
	codec, sel string
	inner      bool
	shape      string
	want       cpumodel.Counters
}{
	{"raw-int", "sel0.5", false, "full", cpumodel.Counters{Instr: 1810692, SeqBytes: 48000, RandLines: 0, L1Bytes: 48000, IORequests: 96, IOBytes: 49152, Pages: 96, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"raw-int", "sel0.5", true, "full", cpumodel.Counters{Instr: 1683460, SeqBytes: 48000, RandLines: 0, L1Bytes: 48000, IORequests: 96, IOBytes: 49152, Pages: 96, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"bitpack-10", "sel0.5", true, "full", cpumodel.Counters{Instr: 1723235, SeqBytes: 37003, RandLines: 0, L1Bytes: 37003, IORequests: 74, IOBytes: 37888, Pages: 74, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"bitpack-14", "sel0.01", false, "keep-full", cpumodel.Counters{Instr: 814071, SeqBytes: 17456, RandLines: 0, L1Bytes: 17456, IORequests: 71, IOBytes: 36352, Pages: 46, PagesPruned: 14, PagesLateSkipped: 11, BytesSkipped: 0}},
	{"bitpack-31", "sel1", false, "full", cpumodel.Counters{Instr: 2571900, SeqBytes: 47508, RandLines: 0, L1Bytes: 47508, IORequests: 95, IOBytes: 48640, Pages: 95, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"for-16", "sel0.5", true, "full", cpumodel.Counters{Instr: 1717625, SeqBytes: 40000, RandLines: 0, L1Bytes: 40000, IORequests: 80, IOBytes: 40960, Pages: 80, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"fordelta-8", "sel0.01", false, "keep-full", cpumodel.Counters{Instr: 1111996, SeqBytes: 17528, RandLines: 0, L1Bytes: 17528, IORequests: 66, IOBytes: 33792, Pages: 43, PagesPruned: 13, PagesLateSkipped: 10, BytesSkipped: 0}},
	{"fordelta-8", "sel0.5", true, "full", cpumodel.Counters{Instr: 2069020, SeqBytes: 28568, RandLines: 0, L1Bytes: 28568, IORequests: 57, IOBytes: 29184, Pages: 57, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"raw-text-5", "sel1", true, "full", cpumodel.Counters{Instr: 2248874, SeqBytes: 52000, RandLines: 0, L1Bytes: 52000, IORequests: 104, IOBytes: 53248, Pages: 104, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"bitpack-text-16", "sel0.01", true, "full", cpumodel.Counters{Instr: 1131247, SeqBytes: 22424, RandLines: 0, L1Bytes: 22424, IORequests: 80, IOBytes: 40960, Pages: 80, PagesPruned: 0, PagesLateSkipped: 0, BytesSkipped: 0}},
	{"dict-text-3", "sel0.5", true, "keep-ranged", cpumodel.Counters{Instr: 1225415, SeqBytes: 24308, RandLines: 0, L1Bytes: 24308, IORequests: 61, IOBytes: 31232, Pages: 49, PagesPruned: 12, PagesLateSkipped: 0, BytesSkipped: 0}},
}

func TestAttachCountGolden(t *testing.T) {
	tables := map[string]*diffTable{}
	for _, g := range attachCountGolden {
		name := g.codec + "/" + g.sel + "/" + innerName(g.inner) + "/" + g.shape
		var c payloadCodec
		for _, pc := range payloadCodecs {
			if pc.name == g.codec {
				c = pc
			}
		}
		lit := int32(-1)
		for _, s := range drivingSels {
			if s.name == g.sel {
				lit = s.lit
			}
		}
		if c.name == "" || lit < 0 {
			t.Fatalf("%s: no such codec or selectivity", name)
		}
		if tables[c.name] == nil {
			tables[c.name] = buildPayloadTable(t, c, diffRows)
		}
		_, got, err := tables[c.name].run(payloadRun(c.preds(lit, g.inner), g.shape))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != g.want {
			t.Errorf("Counters of %s moved:\n got  %#v\n want %#v", name, got, g.want)
		}
	}
}

// TestAttachBlockSpansPayloadPages drives blocks whose positions cross
// at least three payload pages, so one block's attach walks several
// page runs and late-skips nothing in between.
func TestAttachBlockSpansPayloadPages(t *testing.T) {
	c := payloadCodecs[0] // raw int: the fewest rows per 512-byte page
	d := buildPayloadTable(t, c, diffRows)
	capacity := int64(page.ColGeometry(d.sch.Attrs[1], diffPageSize).Capacity())
	preds := []exec.Predicate{exec.IntPred(0, exec.Lt, 250)}
	// The reference's first block: the first BlockTuples qualifying rows.
	var rows []int64
	width := d.sch.Width()
	for i := 0; i < diffRows && len(rows) < exec.DefaultBlockTuples; i++ {
		if preds[0].Eval(d.sch, d.rows[i*width:(i+1)*width]) {
			rows = append(rows, int64(i))
		}
	}
	if span := rows[len(rows)-1]/capacity - rows[0]/capacity + 1; span < 3 {
		t.Fatalf("first block spans %d payload pages of %d rows, want >= 3", span, capacity)
	}
	checkAgreement(t, d, preds, []int{1, 2})
	checkAgreement(t, d, append(preds, c.innerPred()), []int{2, 1})
}

// attachDirect opens a scanner over d that projects P and TAG, fills its
// block with one tuple per position, and runs the per-position attach
// (scalar) or the batched one on the payload node P.
func attachDirect(t *testing.T, d *diffTable, scalar bool, positions []int64) error {
	t.Helper()
	preds := []exec.Predicate{exec.IntPred(0, exec.Lt, 1000)}
	s, err := d.scanner(colRun{preds: preds, proj: []int{1, 2}, scalar: scalar}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.block.Reset()
	s.positions = append(s.positions[:0], positions...)
	s.block.AllocN(len(positions))
	if scalar {
		return s.attach(s.nodes[1])
	}
	return s.attachVec(s.nodes[1])
}

// TestAttachCorruptPositions feeds corrupt position vectors to both
// attach paths: the batched attach must fail with the per-position
// attach's error class, never panic and never read a neighbour's bytes.
func TestAttachCorruptPositions(t *testing.T) {
	for _, c := range []payloadCodec{payloadCodecs[0], payloadCodecs[3], payloadCodecs[8], payloadCodecs[11]} {
		t.Run(c.name, func(t *testing.T) {
			d := buildPayloadTable(t, c, diffRows)
			capacity := int64(page.ColGeometry(d.sch.Attrs[1], diffPageSize).Capacity())
			mid := 2*capacity + 5
			cases := []struct {
				name      string
				positions []int64
				corrupt   bool // typed fault.ErrCorrupt; otherwise a plain error
			}{
				{"below-page-start", []int64{mid, mid - capacity}, false},
				{"past-last-page-count", []int64{mid, d.n}, true},
				{"past-column-end", []int64{d.n + 3*capacity}, true},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					want := attachDirect(t, d, true, tc.positions)
					got := attachDirect(t, d, false, tc.positions)
					if want == nil || got == nil {
						t.Fatalf("per-position err %v, batched err %v: want both to fail", want, got)
					}
					if fault.Classify(got) != fault.Classify(want) || errors.Is(got, fault.ErrCorrupt) != tc.corrupt {
						t.Fatalf("batched err %q (%s), per-position err %q (%s), want corrupt=%v",
							got, fault.Classify(got), want, fault.Classify(want), tc.corrupt)
					}
				})
			}

			// On the cursor: a position just below the current page and
			// one just past its count are typed corruption for value and
			// for gatherPage alike.
			s, err := d.scanner(colRun{preds: []exec.Predicate{exec.IntPred(0, exec.Lt, 1000)}, proj: []int{1}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cur := s.nodes[1].cur
			if err := cur.advanceTo(mid); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, c.attr.Type.Size)
			for _, pos := range []int64{cur.pgStart - 1, cur.pgStart + int64(cur.pgCount)} {
				if err := cur.value(pos, buf); !errors.Is(err, fault.ErrCorrupt) {
					t.Errorf("value(%d) = %v, want ErrCorrupt", pos, err)
				}
				if m, err := cur.gatherPage([]int64{pos, mid}); !errors.Is(err, fault.ErrCorrupt) || m != 0 {
					t.Errorf("gatherPage(%d) = %d, %v, want ErrCorrupt", pos, m, err)
				}
			}
		})
	}
}
