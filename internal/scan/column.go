package scan

import (
	"fmt"
	"io"
	"sort"

	"github.com/readoptdb/readopt/internal/aio"
	"github.com/readoptdb/readopt/internal/compress"
	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/schema"
)

// ColConfig configures a column-store table scan.
type ColConfig struct {
	// Schema is the stored table schema (possibly compressed).
	Schema *schema.Schema
	// PageSize is the table's page size.
	PageSize int
	// Readers supplies one aio.Reader per column the query touches
	// (predicate and projected attributes), keyed by attribute index.
	Readers map[int]aio.Reader
	// Dicts holds the dictionaries of Dict-encoded attributes.
	Dicts map[int]*compress.Dictionary
	// Preds are the conjunctive SARGable predicates.
	Preds []exec.Predicate
	// Proj lists the attributes to return, in output order.
	Proj []int
	// BlockTuples is the output block size (DefaultBlockTuples if zero).
	BlockTuples int
	// Counters receives the work accounting; may be nil.
	Counters *cpumodel.Counters
	// Costs is the instruction cost table (DefaultCosts if zero).
	Costs cpumodel.Costs
	// LineBytes is the cache line size for memory accounting.
	LineBytes int
	// StartRow and EndRow bound the scan to the global row range
	// [StartRow, EndRow); EndRow 0 means the end of the table. Each
	// column's Reader must then stream from the page containing StartRow
	// (page index StartRow / page capacity for that column's geometry),
	// which is how partitioned scans parallelize a table.
	StartRow int64
	EndRow   int64
	// Integrity, keyed by attribute index, makes each column cursor
	// verify its pages' CRCs against the store sidecar; nil or missing
	// entries disable checking for that column.
	Integrity map[int]*Integrity
	// Keep, when non-nil, holds the global row ranges that survive
	// zone-map pruning, sorted, disjoint, and already clipped to
	// [StartRow, EndRow). Pages with no keep overlap are crossed without
	// decoding and counted as pruned; payload pages inside keep that no
	// qualifying position lands on are counted as late-skipped.
	Keep []RowRange
	// Sections, keyed by attribute index, clips each column reader to
	// the page window it actually delivers (the plan layer opens the
	// file section covering only the kept pages). Required per column
	// whenever Keep is non-nil.
	Sections map[int]PageSection
	// Scalar disables the vectorized operate-on-compressed drive and
	// runs the classic value-at-a-time pipeline — the reference path the
	// kernel differential suite compares against, and an escape hatch.
	Scalar bool
}

func (cfg *ColConfig) fill() {
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

// scanNode is one stage of the pipelined column scanner: a cursor over
// one column plus the predicates evaluated at this stage and the output
// slot the column's values land in.
type scanNode struct {
	cur    *colCursor
	preds  []exec.Predicate
	outOff int // offset within the output tuple; -1 when not projected
	size   int
	isInt  bool
}

// nodeOrder returns the attribute order of the scan pipeline: predicate
// attributes first (scan nodes that yield few qualifying tuples are
// pushed as deep as possible), then the remaining projected attributes in
// projection order.
func nodeOrder(preds map[int][]exec.Predicate, proj []int) []int {
	var order []int
	seen := map[int]bool{}
	var predAttrs []int
	for a := range preds {
		predAttrs = append(predAttrs, a)
	}
	sort.Ints(predAttrs)
	for _, a := range predAttrs {
		order = append(order, a)
		seen[a] = true
	}
	for _, a := range proj {
		if !seen[a] {
			order = append(order, a)
			seen[a] = true
		}
	}
	return order
}

// buildNodes constructs the scan nodes shared by both column scanner
// variants.
func buildNodes(cfg *ColConfig, out *schema.Schema, preds map[int][]exec.Predicate) ([]*scanNode, error) {
	outOff := make(map[int]int)
	for k, a := range cfg.Proj {
		outOff[a] = out.Offset(k)
	}
	var nodes []*scanNode
	for _, a := range nodeOrder(preds, cfg.Proj) {
		reader, ok := cfg.Readers[a]
		if !ok || reader == nil {
			return nil, fmt.Errorf("scan: no reader for column %s", cfg.Schema.Attrs[a].Name)
		}
		cur, err := newColCursor(cfg.Schema, a, cfg.PageSize, cfg.Dicts[a], reader, cfg.Counters, cfg.Costs, cfg.LineBytes)
		if err != nil {
			return nil, err
		}
		cur.integ = cfg.Integrity[a]
		if sec, ok := cfg.Sections[a]; ok {
			// The reader delivers only the section's page window.
			cur.pgStart = sec.Start * int64(cur.cr.Capacity())
			cur.secStartPg = sec.Start
			cur.secPages = sec.Pages
		} else if cfg.StartRow > 0 {
			// The reader starts at the page containing StartRow.
			cap64 := int64(cur.cr.Capacity())
			cur.pgStart = cfg.StartRow / cap64 * cap64
		}
		if cfg.Keep != nil {
			cur.keep = cfg.Keep
			cur.prune = true
		}
		off := -1
		if o, ok := outOff[a]; ok {
			off = o
		}
		nodes = append(nodes, &scanNode{
			cur:    cur,
			preds:  preds[a],
			outOff: off,
			size:   cfg.Schema.Attrs[a].Type.Size,
			isInt:  cfg.Schema.Attrs[a].Type.Kind == schema.Int32,
		})
	}
	return nodes, nil
}

// evalNodePreds applies a node's predicates to a raw value.
func (n *scanNode) evalNodePreds(v []byte, counters *cpumodel.Counters, costs cpumodel.Costs) bool {
	return evalValue(n.preds, n.isInt, v, counters, costs.Predicate)
}

// ColScanner is the paper's pipelined column scanner: a series of scan
// nodes, one per selected column. The deepest node streams its column,
// evaluating its predicates on every value and emitting {position, value}
// pairs for qualifying rows; each subsequent node uses the position list
// to drive its inner loop, examining only the values at qualifying
// positions, filtering further if it has predicates, and attaching its
// values to the tuples under construction. The vectorized drive runs
// both loops a page at a time (driveDeepestVec, attachVec); Scalar runs
// them a value at a time (driveDeepest, attach). Both charge the same
// Counters. Tuple blocks are reused between nodes, so there is no
// allocation during the scan.
type ColScanner struct {
	cfg   ColConfig
	out   *schema.Schema
	nodes []*scanNode

	block     *exec.Block
	positions []int64
	opened    bool
	eof       bool
	vecLast   bool // vectorized drive: current page is the range's last
	valBuf    []byte
}

// NewColScanner builds a pipelined column scanner.
func NewColScanner(cfg ColConfig) (*ColScanner, error) {
	cfg.fill()
	preds, err := splitPreds(cfg.Schema, cfg.Preds)
	if err != nil {
		return nil, err
	}
	out, err := projectSchema(cfg.Schema, cfg.Proj)
	if err != nil {
		return nil, err
	}
	nodes, err := buildNodes(&cfg, out, preds)
	if err != nil {
		return nil, err
	}
	maxSize := 0
	for _, n := range nodes {
		if n.size > maxSize {
			maxSize = n.size
		}
	}
	c := &ColScanner{
		cfg:       cfg,
		out:       out,
		nodes:     nodes,
		block:     exec.NewBlock(out, cfg.BlockTuples),
		positions: make([]int64, 0, cfg.BlockTuples),
		valBuf:    make([]byte, maxSize),
	}
	if !cfg.Scalar {
		c.initVector()
	}
	return c, nil
}

// Schema implements exec.Operator.
func (c *ColScanner) Schema() *schema.Schema { return c.out }

// Open implements exec.Operator.
func (c *ColScanner) Open() error {
	c.opened = true
	return nil
}

// Close implements exec.Operator.
func (c *ColScanner) Close() error {
	var first error
	for _, n := range c.nodes {
		n.cur.close()
		if err := n.cur.reader.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.opened = false
	return first
}

// driveDeepest fills the position list (and the deepest node's output
// slots) from the first column until the block fills or the column ends.
func (c *ColScanner) driveDeepest() error {
	n0 := c.nodes[0]
	cur := n0.cur
	for !c.block.Full() {
		if cur.consumed >= cur.pgCount {
			if err := cur.nextPage(); err == io.EOF {
				c.eof = true
				return nil
			} else if err != nil {
				return err
			}
			cur.consumed = 0
			cur.fullCharge = true // the deepest node streams everything
			if skip := c.cfg.StartRow - cur.pgStart; skip > 0 && skip <= int64(cur.pgCount) {
				// First page of a partitioned scan: skip rows before
				// the range.
				cur.consumed = int(skip)
			}
			continue
		}
		i := cur.consumed
		pos := cur.pgStart + int64(i)
		if c.cfg.EndRow > 0 && pos >= c.cfg.EndRow {
			c.eof = true
			return nil
		}
		c.cfg.Counters.AddInstr(c.cfg.Costs.ValueLoop)
		var v []byte
		if !cur.cr.RandomAccess() {
			if err := cur.ensureDecoded(); err != nil {
				return err
			}
			v = cur.decoded[i*n0.size : (i+1)*n0.size]
		} else {
			cur.cr.ValueAt(cur.pg, i, c.valBuf[:n0.size])
			c.cfg.Counters.AddInstr(c.cfg.Costs.DecodeCost(cur.attr.Enc))
			v = c.valBuf[:n0.size]
		}
		if n0.evalNodePreds(v, c.cfg.Counters, c.cfg.Costs) {
			c.positions = append(c.positions, pos)
			dst := c.block.Alloc()
			if n0.outOff >= 0 {
				copy(dst[n0.outOff:n0.outOff+n0.size], v)
				c.cfg.Counters.AddInstr(int64(n0.size) * c.cfg.Costs.CopyPerByte)
			}
		}
		cur.consumed++
	}
	return nil
}

// attach runs inner node k over the current position list, filtering and
// attaching values; the block and the position list are compacted in
// place when the node's predicates drop rows.
func (c *ColScanner) attach(n *scanNode) error {
	write := 0
	for idx, pos := range c.positions {
		c.cfg.Counters.AddInstr(c.cfg.Costs.NodeInput)
		if err := n.cur.advanceTo(pos); err != nil {
			return err
		}
		if err := n.cur.value(pos, c.valBuf[:n.size]); err != nil {
			return err
		}
		if len(n.preds) > 0 && !n.evalNodePreds(c.valBuf[:n.size], c.cfg.Counters, c.cfg.Costs) {
			continue
		}
		if write != idx {
			copy(c.block.Tuple(write), c.block.Tuple(idx))
			c.cfg.Counters.AddInstr(int64(c.out.Width()) * c.cfg.Costs.CopyPerByte)
		}
		if n.outOff >= 0 {
			copy(c.block.Tuple(write)[n.outOff:n.outOff+n.size], c.valBuf[:n.size])
			c.cfg.Counters.AddInstr(c.cfg.Costs.ValueAttach + int64(n.size)*c.cfg.Costs.CopyPerByte)
		} else {
			c.cfg.Counters.AddInstr(c.cfg.Costs.ValueAttach)
		}
		c.positions[write] = pos
		write++
	}
	c.positions = c.positions[:write]
	c.block.Truncate(write)
	return nil
}

// attachVec is attach for the vectorized drive, with the same output and
// the same Counters: it walks the position list one payload page at a
// time, decoding each page's run of positions once (gatherPage) instead
// of one codec call per position, then filters, compacts and attaches
// the run straight from the decoded values. Every position is checked
// against the page before it indexes the decoded values.
//
//readopt:posconsumer
func (c *ColScanner) attachVec(n *scanNode) error {
	cur := n.cur
	counters, costs := c.cfg.Counters, c.cfg.Costs
	attachCost := costs.ValueAttach
	if n.outOff >= 0 {
		attachCost += int64(n.size) * costs.CopyPerByte
	}
	write, moved := 0, int64(0)
	for idx := 0; idx < len(c.positions); {
		if err := cur.advanceTo(c.positions[idx]); err != nil {
			return err
		}
		m, err := cur.gatherPage(c.positions[idx:])
		if err != nil {
			return err
		}
		counters.AddInstr(int64(m) * costs.NodeInput)
		for end := idx + m; idx < end; idx++ {
			pos := c.positions[idx]
			i := int(pos - cur.pgStart)
			if i < 0 || i >= cur.pgCount {
				return cur.outsidePage(pos)
			}
			v := cur.decoded[i*n.size : (i+1)*n.size]
			if len(n.preds) > 0 && !n.evalNodePreds(v, counters, costs) {
				continue
			}
			if write != idx {
				copy(c.block.Tuple(write), c.block.Tuple(idx))
				moved++
			}
			if n.outOff >= 0 {
				copy(c.block.Tuple(write)[n.outOff:n.outOff+n.size], v)
			}
			c.positions[write] = pos
			write++
		}
	}
	counters.AddInstr(moved*int64(c.out.Width())*costs.CopyPerByte + int64(write)*attachCost)
	c.positions = c.positions[:write]
	c.block.Truncate(write)
	return nil
}

// Next implements exec.Operator.
//
//readopt:hotpath
func (c *ColScanner) Next() (*exec.Block, error) {
	if !c.opened {
		return nil, errNextBeforeOpen
	}
	for {
		if c.eof {
			return nil, nil
		}
		c.block.Reset()
		c.positions = c.positions[:0]
		var err error
		if c.cfg.Scalar {
			err = c.driveDeepest()
		} else {
			err = c.driveDeepestVec()
		}
		if err != nil {
			return nil, err
		}
		for _, n := range c.nodes[1:] {
			if len(c.positions) == 0 {
				break
			}
			if c.cfg.Scalar {
				err = c.attach(n)
			} else {
				err = c.attachVec(n)
			}
			if err != nil {
				return nil, err
			}
		}
		c.cfg.Counters.AddInstr(c.cfg.Costs.BlockOverhead)
		if c.block.Len() > 0 {
			return c.block, nil
		}
		if c.eof {
			return nil, nil
		}
	}
}
