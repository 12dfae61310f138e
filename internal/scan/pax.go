package scan

import (
	"fmt"
	"io"

	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/fault"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/schema"
)

// PAXScanner scans a PAX-layout table: a single file (so disk I/O is
// exactly the row store's) whose pages organize values column-major. The
// scanner only touches the minipages of the attributes the query needs,
// giving it the column store's memory and decompression behaviour at the
// row store's I/O cost — the tradeoff the paper's related-work section
// attributes to PAX.
type PAXScanner struct {
	cfg   RowConfig // same configuration shape as the row scanner
	sch   *schema.Schema
	out   *schema.Schema
	preds []attrPreds // in first-predicate order
	pr    *page.PAXReader

	block *exec.Block

	unit      []byte
	unitOff   int
	pg        []byte
	pgPos     int
	pgCount   int
	pagesRead int64
	eof       bool
	opened    bool

	// Whole-page value arrays, indexed by attribute and nil for
	// attributes fetched per qualifying row. needed lists the non-nil
	// ones: predicate attributes in first-predicate order, then
	// sequential-only (FOR-delta) projected attributes.
	scratch [][]byte
	needed  []int
}

// NewPAXScanner builds a scanner over PAX pages from the row-scan
// configuration (the table is a single file, as for the row layout).
func NewPAXScanner(cfg RowConfig) (*PAXScanner, error) {
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
		return nil, fmt.Errorf("scan: PAX scanner needs a reader")
	}
	pr, err := page.NewPAXReader(s, cfg.PageSize, cfg.Dicts)
	if err != nil {
		return nil, err
	}
	r := &PAXScanner{
		cfg:     cfg,
		sch:     s,
		out:     out,
		preds:   orderPreds(s, cfg.Preds, preds),
		pr:      pr,
		block:   exec.NewBlock(out, cfg.BlockTuples),
		scratch: make([][]byte, s.NumAttrs()),
	}
	need := func(a int) {
		if r.scratch[a] == nil {
			r.scratch[a] = make([]byte, pr.Capacity()*s.Attrs[a].Type.Size)
			r.needed = append(r.needed, a)
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
	return r, nil
}

// Schema implements exec.Operator.
func (r *PAXScanner) Schema() *schema.Schema { return r.out }

// Open implements exec.Operator.
func (r *PAXScanner) Open() error {
	r.opened = true
	return nil
}

// Close implements exec.Operator.
func (r *PAXScanner) Close() error {
	r.opened = false
	if r.cfg.Keep != nil {
		settleUnreadPages(r.cfg.Counters, r.cfg.Keep, r.cfg.StartPage, r.pagesRead, r.cfg.SecPages, r.pr.Capacity())
	}
	return r.cfg.Reader.Close()
}

func (r *PAXScanner) nextPage() error {
	if r.eof {
		return io.EOF
	}
	if r.unitOff >= len(r.unit) {
		buf, err := r.cfg.Reader.Next()
		if err == io.EOF {
			r.eof = true
			if err := r.cfg.Integrity.checkComplete("PAX file", r.pagesRead); err != nil {
				return err
			}
			return io.EOF
		}
		if err != nil {
			return err
		}
		if len(buf)%r.cfg.PageSize != 0 {
			return fault.Corruptf("scan: PAX file: I/O unit of %d bytes is not whole pages", len(buf))
		}
		r.cfg.Counters.AddIO(int64(len(buf)))
		r.unit = buf
		r.unitOff = 0
	}
	r.pg = r.unit[r.unitOff : r.unitOff+r.cfg.PageSize]
	r.unitOff += r.cfg.PageSize
	if err := r.cfg.Integrity.verify("PAX file", r.pg, r.pagesRead); err != nil {
		return err
	}
	r.pagesRead++
	r.pgCount = page.Count(r.pg)
	if r.pgCount < 0 || r.pgCount > r.pr.Capacity() {
		return fault.Corruptf("scan: corrupt PAX page: count %d exceeds capacity %d", r.pgCount, r.pr.Capacity())
	}
	r.pgPos = 0
	if r.cfg.Keep != nil && r.pgCount > 0 {
		base := (r.cfg.StartPage + r.pagesRead - 1) * int64(r.pr.Capacity())
		if !KeepIntersects(r.cfg.Keep, base, base+int64(r.pgCount)) {
			// Zone-pruned page: cross it without decoding any minipages.
			r.cfg.Counters.AddPrunedPages(1)
			r.pgPos = r.pgCount
			return nil
		}
	}
	r.cfg.Counters.AddInstr(r.cfg.Costs.PageOverhead)
	r.cfg.Counters.AddPage()

	// Decode the needed-in-full attributes, charging only their
	// minipages — this is PAX's memory advantage over the row layout.
	for _, a := range r.needed {
		if _, err := r.pr.DecodeAttr(r.pg, a, r.scratch[a], r.sch.Attrs[a].Type.Size); err != nil {
			return err
		}
		r.cfg.Counters.AddSeq(int64(r.pr.MinipageBytes(a, r.pgCount)))
		r.cfg.Counters.AddInstr(int64(r.pgCount) * r.cfg.Costs.DecodeCost(r.sch.Attrs[a].Enc))
	}
	// Projected attributes accessed per qualifying row stream their
	// minipages too (the hardware prefetcher catches the strided walk);
	// charge them proportionally to the expected touch, capped at the
	// minipage, using the same touched-line model as the column scanner.
	return nil
}

func (r *PAXScanner) evalPreds(i int) bool {
	for k := range r.preds {
		g := &r.preds[k]
		if !evalValue(g.preds, g.isInt, r.scratch[g.attr][i*g.size:(i+1)*g.size], r.cfg.Counters, r.cfg.Costs.Predicate) {
			return false
		}
	}
	return true
}

func (r *PAXScanner) project(i int, dst []byte) {
	copied := 0
	for k, a := range r.cfg.Proj {
		size := r.sch.Attrs[a].Type.Size
		out := dst[r.out.Offset(k) : r.out.Offset(k)+size]
		if sc := r.scratch[a]; sc != nil {
			copy(out, sc[i*size:(i+1)*size])
		} else {
			r.pr.ValueAt(r.pg, a, i, out)
			r.cfg.Counters.AddInstr(r.cfg.Costs.DecodeCost(r.sch.Attrs[a].Enc))
		}
		copied += size
	}
	r.cfg.Counters.AddInstr(int64(copied) * r.cfg.Costs.CopyPerByte)
	// One cache line per projected access, capped implicitly by the
	// minipage sizes (well below a line per value at 10% selectivity).
	r.cfg.Counters.AddSeq(int64(copied))
}

// Next implements exec.Operator.
//
//readopt:hotpath
func (r *PAXScanner) Next() (*exec.Block, error) {
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
		r.cfg.Counters.AddInstr(r.cfg.Costs.TupleLoop)
		if r.evalPreds(r.pgPos) {
			r.project(r.pgPos, r.block.Alloc())
		}
		r.pgPos++
	}
	r.cfg.Counters.AddInstr(r.cfg.Costs.BlockOverhead)
	if r.block.Len() == 0 && r.eof && r.pgPos >= r.pgCount {
		return nil, nil
	}
	return r.block, nil
}
