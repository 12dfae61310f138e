package scan

import (
	"fmt"
	"io"

	"github.com/readoptdb/readopt/internal/aio"
	"github.com/readoptdb/readopt/internal/bitio"
	"github.com/readoptdb/readopt/internal/compress"
	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/fault"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/schema"
)

// RowConfig configures a row-store table scan.
type RowConfig struct {
	// Schema is the stored table schema (possibly compressed).
	Schema *schema.Schema
	// PageSize is the table's page size.
	PageSize int
	// Reader streams the row file's pages.
	Reader aio.Reader
	// Dicts holds the dictionaries of Dict-encoded attributes.
	Dicts map[int]*compress.Dictionary
	// Preds are the conjunctive SARGable predicates to apply.
	Preds []exec.Predicate
	// Proj lists the attributes to return, in output order.
	Proj []int
	// BlockTuples is the output block size (DefaultBlockTuples if zero).
	BlockTuples int
	// Counters receives the work accounting; may be nil.
	Counters *cpumodel.Counters
	// Costs is the instruction cost table (DefaultCosts if zero).
	Costs cpumodel.Costs
	// Machine supplies the cache line size for memory accounting
	// (Paper2006 if zero).
	LineBytes int
	// Integrity, when non-nil, makes the scanner verify each page's
	// CRC against the store sidecar and detect truncation at EOF.
	Integrity *Integrity
	// Keep, when non-nil, holds the global row ranges that survive
	// zone-map pruning (sorted, disjoint); delivered pages with no
	// overlap are crossed without decoding and counted as pruned.
	Keep []RowRange
	// StartPage is the global page index of the first page the Reader
	// delivers and SecPages the number of delivered pages; both are
	// consulted only when Keep is non-nil (the plan layer clips the
	// file section to the kept page window).
	StartPage int64
	SecPages  int64
}

func (cfg *RowConfig) fill() {
	if cfg.BlockTuples <= 0 {
		cfg.BlockTuples = exec.DefaultBlockTuples
	}
	if cfg.Costs == (cpumodel.Costs{}) {
		cfg.Costs = cpumodel.DefaultCosts()
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = cpumodel.Paper2006().LineBytes
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = page.DefaultSize
	}
}

// RowScanner scans a row-store file: it iterates over the pages inside
// each I/O buffer and over the tuples of each page, applies the
// predicates, and projects qualifying tuples into output blocks. On
// compressed tables only the attributes a query needs are decompressed:
// predicate attributes for every tuple, projected attributes for
// qualifying tuples (FOR-delta attributes decode as a running sum while
// the page is walked).
type RowScanner struct {
	cfg    RowConfig
	sch    *schema.Schema
	out    *schema.Schema
	preds  []attrPreds // in first-predicate order
	comp   bool        // sch.Compressed(), which walks every attribute
	codecs []compress.Codec
	slots  []int // trailer base-slot per attribute, -1 if none
	geo    page.Geometry

	block *exec.Block

	// Iteration state.
	unit      []byte
	unitOff   int
	pg        []byte
	pgPos     int
	pgCount   int
	pagesRead int64
	eof       bool
	opened    bool

	// Whole-page value arrays (attr size × capacity) of compressed
	// tables, indexed by attribute and nil for attributes decoded per
	// qualifying tuple. needed lists the non-nil ones: predicate
	// attributes in first-predicate order, then FOR-delta projected
	// attributes, which only decode as a running sum.
	scratch     [][]byte
	scratchBits []byte
	needed      []int
}

// NewRowScanner builds a row scanner.
func NewRowScanner(cfg RowConfig) (*RowScanner, error) {
	cfg.fill()
	s := cfg.Schema
	preds, err := splitPreds(s, cfg.Preds)
	if err != nil {
		return nil, err
	}
	out, err := projectSchema(s, cfg.Proj)
	if err != nil {
		return nil, err
	}
	if cfg.Reader == nil {
		return nil, fmt.Errorf("scan: row scanner needs a reader")
	}
	r := &RowScanner{
		cfg:   cfg,
		sch:   s,
		out:   out,
		preds: orderPreds(s, cfg.Preds, preds),
		comp:  s.Compressed(),
		geo:   page.RowGeometry(s, cfg.PageSize),
		block: exec.NewBlock(out, cfg.BlockTuples),
	}
	if err := r.geo.Validate(); err != nil {
		return nil, err
	}
	if r.comp {
		r.codecs = make([]compress.Codec, s.NumAttrs())
		r.slots = make([]int, s.NumAttrs())
		slot := 0
		for i, a := range s.Attrs {
			c, err := compress.New(a, cfg.Dicts[i])
			if err != nil {
				return nil, err
			}
			r.codecs[i] = c
			r.slots[i] = -1
			if a.Enc == schema.FOR || a.Enc == schema.FORDelta {
				r.slots[i] = slot
				slot++
			}
		}
		r.scratch = make([][]byte, s.NumAttrs())
		maxBits := 0
		need := func(a int) {
			if r.scratch[a] != nil {
				return
			}
			r.scratch[a] = make([]byte, r.geo.Capacity()*s.Attrs[a].Type.Size)
			r.needed = append(r.needed, a)
			if b := r.geo.Capacity() * s.CodeBits(a); b > maxBits {
				maxBits = b
			}
		}
		for _, g := range r.preds {
			need(g.attr)
		}
		for _, a := range cfg.Proj {
			if s.Attrs[a].Enc == schema.FORDelta {
				need(a)
			}
		}
		r.scratchBits = make([]byte, bitio.SizeBytes(maxBits))
	}
	return r, nil
}

// Schema implements exec.Operator.
func (r *RowScanner) Schema() *schema.Schema { return r.out }

// Open implements exec.Operator.
func (r *RowScanner) Open() error {
	r.opened = true
	return nil
}

// Close implements exec.Operator.
func (r *RowScanner) Close() error {
	r.opened = false
	if r.cfg.Keep != nil {
		settleUnreadPages(r.cfg.Counters, r.cfg.Keep, r.cfg.StartPage, r.pagesRead, r.cfg.SecPages, r.geo.Capacity())
	}
	return r.cfg.Reader.Close()
}

// nextPage pulls the next page, returning io.EOF past the last one.
func (r *RowScanner) nextPage() error {
	if r.eof {
		return io.EOF
	}
	if r.unitOff >= len(r.unit) {
		buf, err := r.cfg.Reader.Next()
		if err == io.EOF {
			r.eof = true
			if err := r.cfg.Integrity.checkComplete("row file", r.pagesRead); err != nil {
				return err
			}
			return io.EOF
		}
		if err != nil {
			return err
		}
		if len(buf)%r.cfg.PageSize != 0 {
			return fault.Corruptf("scan: row file: I/O unit of %d bytes is not whole pages", len(buf))
		}
		r.cfg.Counters.AddIO(int64(len(buf)))
		r.unit = buf
		r.unitOff = 0
	}
	r.pg = r.unit[r.unitOff : r.unitOff+r.cfg.PageSize]
	r.unitOff += r.cfg.PageSize
	if err := r.cfg.Integrity.verify("row file", r.pg, r.pagesRead); err != nil {
		return err
	}
	r.pagesRead++
	r.pgCount = page.Count(r.pg)
	if r.pgCount < 0 || r.pgCount > r.geo.Capacity() {
		return fault.Corruptf("scan: corrupt row page: count %d exceeds capacity %d", r.pgCount, r.geo.Capacity())
	}
	r.pgPos = 0
	if r.cfg.Keep != nil && r.pgCount > 0 {
		base := (r.cfg.StartPage + r.pagesRead - 1) * int64(r.geo.Capacity())
		if !KeepIntersects(r.cfg.Keep, base, base+int64(r.pgCount)) {
			// Zone-pruned page: cross it without decoding any tuples.
			r.cfg.Counters.AddPrunedPages(1)
			r.pgPos = r.pgCount
			return nil
		}
	}
	r.cfg.Counters.AddInstr(r.cfg.Costs.PageOverhead)
	r.cfg.Counters.AddPage()
	// The row store streams every tuple byte through the cache.
	r.cfg.Counters.AddSeq(int64(r.pgCount) * int64(r.geo.EntryBits/8))
	if r.comp {
		if err := r.decodeNeeded(); err != nil {
			return err
		}
	}
	return nil
}

// decodeNeeded decompresses, for the current page, the full value array
// of every predicate attribute and every FOR-delta projected attribute.
func (r *RowScanner) decodeNeeded() error {
	data := r.geo.Data(r.pg)
	tupleBits := r.geo.EntryBits
	for _, a := range r.needed {
		dst := r.scratch[a]
		bits := r.sch.CodeBits(a)
		off := r.sch.BitOffset(a)
		for i := 0; i < r.pgCount; i++ {
			bitio.CopyBits(r.scratchBits, i*bits, data, i*tupleBits+off, bits)
		}
		var base int32
		if r.slots[a] >= 0 {
			base = r.geo.Base(r.pg, r.slots[a])
		}
		if err := r.codecs[a].DecodePage(bitio.NewReader(r.scratchBits), dst, r.sch.Attrs[a].Type.Size, r.pgCount, base); err != nil {
			return err
		}
		r.cfg.Counters.AddInstr(int64(r.pgCount) * r.cfg.Costs.DecodeCost(r.sch.Attrs[a].Enc))
	}
	return nil
}

// evalPreds evaluates all predicates against tuple i of the current page.
func (r *RowScanner) evalPreds(i int, rawTuple []byte) bool {
	for k := range r.preds {
		g := &r.preds[k]
		var val []byte
		if r.comp {
			val = r.scratch[g.attr][i*g.size : (i+1)*g.size]
		} else {
			val = rawTuple[g.off : g.off+g.size]
		}
		if !evalValue(g.preds, g.isInt, val, r.cfg.Counters, r.cfg.Costs.Predicate) {
			return false
		}
	}
	return true
}

// project writes tuple i's projected attributes into dst (output schema
// layout).
func (r *RowScanner) project(i int, rawTuple []byte, dst []byte) {
	data := r.geo.Data(r.pg)
	tupleBits := r.geo.EntryBits
	copied := 0
	for k, a := range r.cfg.Proj {
		size := r.sch.Attrs[a].Type.Size
		out := dst[r.out.Offset(k) : r.out.Offset(k)+size]
		switch {
		case !r.comp:
			off := r.sch.Offset(a)
			copy(out, rawTuple[off:off+size])
		default:
			if sc := r.scratch[a]; sc != nil {
				copy(out, sc[i*size:(i+1)*size])
			} else {
				var base int32
				if r.slots[a] >= 0 {
					base = r.geo.Base(r.pg, r.slots[a])
				}
				r.codecs[a].DecodeAt(data, i*tupleBits+r.sch.BitOffset(a), 0, base, out)
				r.cfg.Counters.AddInstr(r.cfg.Costs.DecodeCost(r.sch.Attrs[a].Enc))
			}
		}
		copied += size
	}
	r.cfg.Counters.AddInstr(int64(copied) * r.cfg.Costs.CopyPerByte)
}

// Next implements exec.Operator.
//
//readopt:hotpath
func (r *RowScanner) Next() (*exec.Block, error) {
	if !r.opened {
		return nil, errNextBeforeOpen
	}
	r.block.Reset()
	for !r.block.Full() {
		if r.pgPos >= r.pgCount {
			if err := r.nextPage(); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			continue
		}
		var rawTuple []byte
		if !r.comp {
			stride := r.sch.StoredWidth()
			data := r.geo.Data(r.pg)
			rawTuple = data[r.pgPos*stride : r.pgPos*stride+r.sch.Width()]
		}
		r.cfg.Counters.AddInstr(r.cfg.Costs.TupleLoop)
		if r.evalPreds(r.pgPos, rawTuple) {
			r.project(r.pgPos, rawTuple, r.block.Alloc())
		}
		r.pgPos++
	}
	r.cfg.Counters.AddInstr(r.cfg.Costs.BlockOverhead)
	if r.block.Len() == 0 && r.eof && r.pgPos >= r.pgCount {
		return nil, nil
	}
	return r.block, nil
}
