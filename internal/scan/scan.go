// Package scan implements the paper's table scanners (Section 2.2.2):
// the row scanner, which reads a single file of row pages, and two column
// scanners — the pipelined scanner built from per-column scan nodes
// exchanging {position, value} blocks, and the single-iterator variant
// (the PAX/MonetDB-style optimization the paper describes in Section 4.2)
// that fetches pages from all scanned columns and iterates over entire
// rows using memory offsets.
//
// All scanners are exec.Operators and produce identical output blocks for
// identical queries, so they are interchangeable inside the query engine;
// their difference is purely how they touch storage. Scanners apply
// SARGable predicates, perform projection, and account every unit of work
// to a cpumodel.Counters: instructions, sequential and random memory
// traffic, and I/O requests. The accounting is what the experiment
// harness converts into the paper's time breakdowns.
package scan

import (
	"errors"
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

// errNextBeforeOpen is the protocol-violation error Next returns on an
// unopened scanner. A sentinel: Next runs once per block on the hot
// path, and hotalloc forbids building the error there.
var errNextBeforeOpen = errors.New("scan: Next before Open")

// splitPreds validates predicates against the schema and groups them by
// attribute.
func splitPreds(s *schema.Schema, preds []exec.Predicate) (map[int][]exec.Predicate, error) {
	byAttr := make(map[int][]exec.Predicate)
	for i := range preds {
		p := preds[i]
		if err := p.Validate(s); err != nil {
			return nil, err
		}
		byAttr[p.Attr] = append(byAttr[p.Attr], p)
	}
	return byAttr, nil
}

// attrPreds is one attribute's predicates with the lookups the row and
// PAX scanners would otherwise repeat per tuple hoisted out.
type attrPreds struct {
	attr  int
	preds []exec.Predicate
	size  int  // decoded value size in bytes
	off   int  // byte offset inside an uncompressed tuple
	isInt bool // Int32 attribute: evaluate with EvalInt
}

// orderPreds flattens splitPreds' grouping into first-predicate order.
// A fixed order makes short-circuit evaluation, and with it the
// Costs.Predicate instruction count of a multi-attribute conjunction,
// the same on every run, which ranging over the map is not.
func orderPreds(s *schema.Schema, preds []exec.Predicate, byAttr map[int][]exec.Predicate) []attrPreds {
	ordered := make([]attrPreds, 0, len(byAttr))
	seen := make(map[int]bool, len(byAttr))
	for i := range preds {
		a := preds[i].Attr
		if seen[a] {
			continue
		}
		seen[a] = true
		t := s.Attrs[a].Type
		ordered = append(ordered, attrPreds{attr: a, preds: byAttr[a], size: t.Size, off: s.Offset(a), isInt: t.Kind == schema.Int32})
	}
	return ordered
}

// evalValue applies one attribute's predicates to a decoded value,
// charging each evaluation and stopping at the first that fails.
func evalValue(preds []exec.Predicate, isInt bool, v []byte, counters *cpumodel.Counters, cost int64) bool {
	for k := range preds {
		counters.AddInstr(cost)
		var ok bool
		if isInt {
			ok = preds[k].EvalInt(int32(uint32(v[0]) | uint32(v[1])<<8 | uint32(v[2])<<16 | uint32(v[3])<<24))
		} else {
			ok = preds[k].EvalText(v)
		}
		if !ok {
			return false
		}
	}
	return true
}

// projectSchema validates a projection and derives the output schema,
// stripping encodings (scanners emit decoded tuples).
func projectSchema(s *schema.Schema, proj []int) (*schema.Schema, error) {
	if len(proj) == 0 {
		return nil, fmt.Errorf("scan: empty projection")
	}
	p, err := s.Project(proj)
	if err != nil {
		return nil, err
	}
	attrs := make([]schema.Attribute, p.NumAttrs())
	for i, a := range p.Attrs {
		attrs[i] = schema.Attribute{Name: a.Name, Type: a.Type}
	}
	return schema.New(p.Name, attrs)
}

// colCursor walks one column's pages through an aio.Reader, tracking the
// global row range the current page covers and charging memory traffic
// with the touched-line cap: a page a node only probes sparsely costs one
// cache line per touched value, never more than the page itself.
type colCursor struct {
	attr     schema.Attribute
	attrIdx  int
	cr       *page.ColReader
	reader   aio.Reader
	pageSize int
	counters *cpumodel.Counters
	costs    cpumodel.Costs
	lineB    int

	unit      []byte
	unitOff   int
	pg        []byte
	pgStart   int64 // global row index of the page's first value
	pgCount   int
	pagesRead int64
	consumed  int // values consumed by a driving (deepest) node
	eof       bool
	integ     *Integrity

	decoded      []byte // whole-page decode scratch (sequential codecs)
	decodedValid bool
	touched      int64 // values touched in the current page
	fullCharge   bool  // page already charged as fully streamed

	// Selective-scan state. When prune is set, keep holds the global row
	// ranges that can qualify (sorted, disjoint, already clipped to the
	// partition); pages with no keep overlap are crossed without
	// decoding. active marks the current page as probed; pages left
	// inactive are classified at page-leave as pruned (outside keep) or
	// late-skipped (inside keep, but no qualifying position landed on
	// them). secStartPg/secPages describe the delivered page section so
	// close can classify trailing pages the cursor never pulled.
	keep       []RowRange
	prune      bool
	active     bool
	settled    bool // current page already classified (settleLeave ran)
	secStartPg int64
	secPages   int64

	// Vectorized drive state, allocated only for the deepest node of a
	// vectorized column scan: the packed codes of the current page's
	// in-range rows, the selection vector of qualifying rows, and the
	// per-page predicate translations.
	kern     compress.Kernel
	codes    []uint64
	sel      []int32
	selOff   int  // next selection entry to consume
	selN     int  // selection length for the current page
	vecLo    int  // page row index codes[0] / selection index 0 refer to
	vecCodes bool // current page prepared as packed codes (else decoded)
	matches  []compress.CodeMatch
}

func newColCursor(s *schema.Schema, attrIdx, pageSize int, dict *compress.Dictionary,
	reader aio.Reader, counters *cpumodel.Counters, costs cpumodel.Costs, lineBytes int) (*colCursor, error) {
	a := s.Attrs[attrIdx]
	cr, err := page.NewColReader(a, pageSize, dict)
	if err != nil {
		return nil, err
	}
	return &colCursor{
		attr: a, attrIdx: attrIdx, cr: cr, reader: reader,
		pageSize: pageSize, counters: counters, costs: costs, lineB: lineBytes,
		pgStart: 0, pgCount: 0,
		decoded: make([]byte, cr.Capacity()*a.Type.Size),
	}, nil
}

// occupiedBytes returns the data bytes the current page actually uses.
func (c *colCursor) occupiedBytes() int64 {
	return int64(bitio.SizeBytes(c.pgCount * c.attr.CodeBits()))
}

// chargePage settles the memory accounting for the page being left.
func (c *colCursor) chargePage() {
	if c.pgCount == 0 {
		return
	}
	if c.fullCharge {
		c.counters.AddSeq(c.occupiedBytes())
	} else if c.touched > 0 {
		bytes := c.touched * int64(c.lineB)
		if occ := c.occupiedBytes(); bytes > occ {
			bytes = occ
		}
		c.counters.AddSeq(bytes)
	}
	c.touched = 0
	c.fullCharge = false
}

// markActive records that the current page is being probed or decoded,
// charging the per-page entry costs a non-pruning scan pays in
// nextPage. Idempotent per page.
func (c *colCursor) markActive() {
	if !c.prune || c.active {
		return
	}
	c.active = true
	c.counters.AddInstr(c.costs.PageOverhead)
	c.counters.AddPage()
}

// settleLeave settles the accounting for the page being left: memory
// charges always, and — under pruning — the page's classification if it
// was crossed without a probe.
func (c *colCursor) settleLeave() {
	c.chargePage()
	if !c.prune || c.pgCount == 0 || c.settled {
		return
	}
	// settleLeave runs both when nextPage hits EOF and again from close;
	// the settled latch keeps the classification to once per page.
	c.settled = true
	if !c.active {
		if KeepIntersects(c.keep, c.pgStart, c.pgStart+int64(c.pgCount)) {
			c.counters.AddLateSkippedPages(1)
		} else {
			c.counters.AddPrunedPages(1)
		}
	}
	c.active = false
}

// nextPage advances to the following page, returning io.EOF past the last
// one.
func (c *colCursor) nextPage() error {
	if c.eof {
		return io.EOF
	}
	c.settleLeave()
	if c.unitOff >= len(c.unit) {
		buf, err := c.reader.Next()
		if err == io.EOF {
			c.eof = true
			if err := c.integ.checkComplete("column "+c.attr.Name, c.pagesRead); err != nil {
				return err
			}
			return io.EOF
		}
		if err != nil {
			return err
		}
		if len(buf)%c.pageSize != 0 {
			return fault.Corruptf("scan: column %s: I/O unit of %d bytes is not whole pages", c.attr.Name, len(buf))
		}
		c.counters.AddIO(int64(len(buf)))
		c.unit = buf
		c.unitOff = 0
	}
	c.pgStart += int64(c.pgCount)
	c.pg = c.unit[c.unitOff : c.unitOff+c.pageSize]
	c.unitOff += c.pageSize
	if err := c.integ.verify("column "+c.attr.Name, c.pg, c.pagesRead); err != nil {
		return err
	}
	c.pagesRead++
	c.pgCount = page.Count(c.pg)
	if c.pgCount < 0 || c.pgCount > c.cr.Capacity() {
		return fault.Corruptf("scan: corrupt column page in %s: count %d exceeds capacity %d",
			c.attr.Name, c.pgCount, c.cr.Capacity())
	}
	c.decodedValid = false
	c.settled = false
	if !c.prune {
		c.counters.AddInstr(c.costs.PageOverhead)
		c.counters.AddPage()
	}
	return nil
}

// advanceTo positions the cursor on the page containing global row pos.
// Crossed pages are settled (and, under pruning, classified) but never
// decoded — this is what makes late materialization skip whole payload
// pages.
//
//readopt:posconsumer
func (c *colCursor) advanceTo(pos int64) error {
	for c.pgStart+int64(c.pgCount) <= pos {
		if err := c.nextPage(); err != nil {
			if err == io.EOF {
				return fault.Corruptf("scan: column %s ended before row %d", c.attr.Name, pos)
			}
			return err
		}
	}
	if pos < c.pgStart {
		return fmt.Errorf("scan: column %s cannot seek backwards to row %d", c.attr.Name, pos)
	}
	return nil
}

// ensureDecoded decodes the whole current page into the scratch buffer
// (required for FOR-delta, optional for others) and charges for it.
func (c *colCursor) ensureDecoded() error {
	if c.decodedValid {
		return nil
	}
	if _, err := c.cr.Decode(c.pg, c.decoded); err != nil {
		return err
	}
	c.markActive()
	c.decodedValid = true
	c.fullCharge = true
	c.counters.AddInstr(int64(c.pgCount) * c.costs.DecodeCost(c.attr.Enc))
	return nil
}

// value writes the value at global row pos into dst (attr size bytes).
// The cursor must already be positioned on pos's page; the position is
// bounds-checked against the page before any fetch, so a corrupt
// position vector fails as a typed integrity error.
//
//readopt:posconsumer
func (c *colCursor) value(pos int64, dst []byte) error {
	i := int(pos - c.pgStart)
	if i < 0 || i >= c.pgCount {
		return c.outsidePage(pos)
	}
	c.markActive()
	size := c.attr.Type.Size
	if !c.cr.RandomAccess() {
		if err := c.ensureDecoded(); err != nil {
			return err
		}
		copy(dst[:size], c.decoded[i*size:])
		return nil
	}
	c.cr.ValueAt(c.pg, i, dst[:size])
	c.counters.AddInstr(c.costs.DecodeCost(c.attr.Enc))
	c.touched++
	return nil
}

// outsidePage is the typed integrity error for a position that does not
// lie on the current page.
func (c *colCursor) outsidePage(pos int64) error {
	return fault.Corruptf("scan: column %s: position %d outside page rows [%d, %d)",
		c.attr.Name, pos, c.pgStart, c.pgStart+int64(c.pgCount))
}

// gatherPage decodes, into decoded at page-row offsets, the values of
// the leading run of positions (non-empty) that lie on the current page,
// and returns the run's length. The cursor must already be positioned on
// positions[0]'s page (advanceTo). Random-access codecs decode the run's
// span [first, last] once with the batch decoder; FOR-delta decodes the
// whole page once, as value does. Charges match m calls of value: one
// decode and one touched value per position for random-access codecs,
// the page decode for FOR-delta. decoded is scratch the cursor already
// owns, so the batch allocates nothing.
//
//readopt:posconsumer
func (c *colCursor) gatherPage(positions []int64) (int, error) {
	end := c.pgStart + int64(c.pgCount)
	lo, hi := end, c.pgStart-1
	m := 0
	for _, pos := range positions {
		if pos < c.pgStart || pos >= end {
			break
		}
		lo, hi = min(lo, pos), max(hi, pos)
		m++
	}
	if m == 0 {
		return 0, c.outsidePage(positions[0])
	}
	c.markActive()
	size := c.attr.Type.Size
	first := int(lo - c.pgStart)
	ok, err := c.cr.DecodeRange(c.pg, first, int(hi-lo)+1, c.decoded[first*size:])
	if !ok {
		return m, c.ensureDecoded() // FOR-delta decodes from the page start
	}
	if err != nil {
		return 0, err
	}
	c.decodedValid = false // decoded now holds a span, not the page
	c.counters.AddInstr(int64(m) * c.costs.DecodeCost(c.attr.Enc))
	c.touched += int64(m)
	return m, nil
}

// close settles pending charges, classifying the section pages the
// cursor never pulled (the drive ran out of qualifying positions before
// reaching them).
func (c *colCursor) close() {
	c.settleLeave()
	if c.prune {
		settleUnreadPages(c.counters, c.keep, c.secStartPg, c.pagesRead, c.secPages, c.cr.Capacity())
	}
}
