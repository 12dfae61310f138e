package scan

import (
	"io"

	"github.com/readoptdb/readopt/internal/bitio"
	"github.com/readoptdb/readopt/internal/compress"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/fault"
)

// This file is the vectorized, operate-on-compressed drive of the
// pipelined column scanner. The scalar drive (driveDeepest) decodes and
// evaluates one value per iteration through virtual codec calls; the
// vectorized drive prepares a whole page at once — batch-unpacking the
// packed codes with the word-at-a-time bitio kernel and evaluating
// predicates directly on the codes via translated CodeMatch bounds —
// then streams the surviving selection vector into output blocks,
// materializing only qualifying values. Pages whose codec has no kernel
// (FOR-delta, wide text) or whose predicates do not translate (ranges
// over dictionary or packed-text codes) fall back to one batch decode of
// the page followed by value-space evaluation, which still amortizes the
// per-value call overhead the scalar path pays.
//
// The payload (attach) nodes are batched too: attachVec walks the
// position list one payload page at a time and decodes each page's run
// of qualifying positions once (colCursor.gatherPage) instead of one
// codec call per position. The scalar drive keeps the per-position
// attach as the reference.

// kernOp converts the engine's comparison operator into the compress
// package's mirror type (compress sits below exec and declares its own).
func kernOp(op exec.CmpOp) compress.CmpOp {
	switch op {
	case exec.Lt:
		return compress.CmpLt
	case exec.Le:
		return compress.CmpLe
	case exec.Eq:
		return compress.CmpEq
	case exec.Ne:
		return compress.CmpNe
	case exec.Ge:
		return compress.CmpGe
	default:
		return compress.CmpGt
	}
}

// initVector sizes the deepest node's vectorized scratch: a code vector
// and selection vector covering one page, and one CodeMatch per
// predicate. Inner (attach) nodes need none: attachVec decodes their
// page runs into the decoded scratch every cursor already owns.
func (c *ColScanner) initVector() {
	n0 := c.nodes[0]
	cur := n0.cur
	capacity := cur.cr.Capacity()
	cur.kern = cur.cr.Kernel()
	cur.sel = make([]int32, capacity)
	if cur.kern != nil {
		cur.codes = make([]uint64, capacity)
		cur.matches = make([]compress.CodeMatch, len(n0.preds))
	}
}

// pageRange clips the current page to the scan's [StartRow, EndRow)
// bounds, returning the in-range page row interval [lo, hi) and whether
// this is the scan's last page.
func (c *ColScanner) pageRange(cur *colCursor) (lo, hi int, last bool) {
	lo, hi = 0, cur.pgCount
	if skip := c.cfg.StartRow - cur.pgStart; skip > 0 {
		if skip >= int64(hi) {
			return hi, hi, false
		}
		lo = int(skip)
	}
	if c.cfg.EndRow > 0 && cur.pgStart+int64(cur.pgCount) >= c.cfg.EndRow {
		last = true
		if rem := c.cfg.EndRow - cur.pgStart; rem < int64(hi) {
			hi = int(rem)
		}
		if hi < lo {
			hi = lo
		}
	}
	return lo, hi, last
}

// prepPage prepares the freshly read page of the deepest node for
// vectorized consumption: translate the node's predicates into the
// page's code space and evaluate them on packed codes, or — when any
// predicate refuses the code domain — batch-decode the page once and
// evaluate on values. Either way the result is a selection vector of
// qualifying page rows.
func (c *ColScanner) prepPage(n0 *scanNode) (last bool, err error) {
	cur := n0.cur
	lo, hi, last := c.pageRange(cur)
	cur.vecLo = lo
	cur.selOff, cur.selN = 0, 0
	n := hi - lo
	if n <= 0 {
		return last, nil
	}
	if cur.prune {
		// Zone-map pruning: a page with no keep overlap cannot contain
		// a qualifying row — cross it without unpacking or decoding.
		if !KeepIntersects(cur.keep, cur.pgStart+int64(lo), cur.pgStart+int64(hi)) {
			return last, nil
		}
		cur.markActive()
		cur.fullCharge = true
	}
	c.cfg.Counters.AddInstr(int64(n) * c.cfg.Costs.ValueLoop)

	useCodes := cur.kern != nil
	if useCodes {
		base := cur.cr.Base(cur.pg)
		for k := range n0.preds {
			p := &n0.preds[k]
			m, ok := cur.kern.Translate(kernOp(p.Op), p.Int, p.Text, base)
			if !ok {
				useCodes = false
				break
			}
			cur.matches[k] = m
		}
	}
	if useCodes {
		cur.vecCodes = true
		bits := cur.attr.CodeBits()
		data := cur.cr.Geometry().Data(cur.pg)
		bitio.UnpackBlock(data, lo*bits, bits, n, cur.codes[:n])
		if len(n0.preds) == 0 {
			for i := 0; i < n; i++ {
				cur.sel[i] = int32(i)
			}
			cur.selN = n
			return last, nil
		}
		evals := int64(n)
		cur.selN = compress.EvalPredicate(cur.codes, n, cur.matches[0], cur.sel)
		for k := 1; k < len(n0.preds); k++ {
			evals += int64(cur.selN)
			cur.selN = compress.RefineSel(cur.codes, cur.matches[k], cur.sel[:cur.selN])
		}
		c.cfg.Counters.AddInstr(evals * c.cfg.Costs.Predicate)
		return last, nil
	}

	// Fallback: one batch decode of the page, then value-space filtering.
	cur.vecCodes = false
	if err := cur.ensureDecoded(); err != nil {
		return last, err
	}
	k := 0
	for i := lo; i < hi; i++ {
		v := cur.decoded[i*n0.size : (i+1)*n0.size]
		if n0.evalNodePreds(v, c.cfg.Counters, c.cfg.Costs) {
			cur.sel[k] = int32(i - lo)
			k++
		}
	}
	cur.selN = k
	return last, nil
}

// driveDeepestVec is the vectorized counterpart of driveDeepest: it
// fills the position list (and the deepest node's output slots) from
// page-sized selection vectors until the block fills or the column ends.
func (c *ColScanner) driveDeepestVec() error {
	n0 := c.nodes[0]
	cur := n0.cur
	width := c.out.Width()
	for !c.block.Full() {
		if cur.selOff >= cur.selN {
			if c.vecLast {
				c.eof = true
				return nil
			}
			if err := cur.nextPage(); err == io.EOF {
				c.eof = true
				return nil
			} else if err != nil {
				return err
			}
			if !cur.prune {
				cur.fullCharge = true // the deepest node streams everything
			}
			last, err := c.prepPage(n0)
			if err != nil {
				return err
			}
			if cur.prune && cur.selN > 0 {
				// Clip to the keep set: every emitted position must fall
				// inside it, or a payload column could be asked for a row
				// before its clipped section starts.
				cur.selN = filterSelKeep(cur.sel[:cur.selN], cur.keep, cur.pgStart+int64(cur.vecLo))
			}
			c.vecLast = last
			continue
		}
		take := cur.selN - cur.selOff
		if free := c.block.Cap() - c.block.Len(); take > free {
			take = free
		}
		chunk := cur.sel[cur.selOff : cur.selOff+take]
		rowBase := cur.pgStart + int64(cur.vecLo)
		for _, s := range chunk {
			c.positions = append(c.positions, rowBase+int64(s))
		}
		region := c.block.AllocN(take)
		if n0.outOff >= 0 {
			if cur.vecCodes {
				if err := cur.kern.Materialize(cur.codes, chunk, cur.cr.Base(cur.pg), region[n0.outOff:], width); err != nil {
					return err
				}
				c.cfg.Counters.AddInstr(int64(take) * (c.cfg.Costs.DecodeCost(cur.attr.Enc) + int64(n0.size)*c.cfg.Costs.CopyPerByte))
			} else {
				if err := materializeDecoded(cur.decoded, chunk, cur.vecLo, n0.size, region, width, n0.outOff); err != nil {
					return err
				}
				c.cfg.Counters.AddInstr(int64(take) * int64(n0.size) * c.cfg.Costs.CopyPerByte)
			}
		}
		cur.selOff += take
	}
	return nil
}

// materializeDecoded copies the selected rows of a decoded page into the
// output region; it is the decoded-fallback twin of Kernel.Materialize
// and carries the same contract: every selection index is range-checked
// against the decoded page before use, so a corrupt selection vector
// fails as a typed integrity error instead of reading a neighbor's
// bytes.
//
//readopt:selconsumer
func materializeDecoded(decoded []byte, sel []int32, lo, size int, region []byte, width, outOff int) error {
	rows := len(decoded) / size
	for i, s := range sel {
		row := lo + int(s)
		if s < 0 || row >= rows {
			return fault.Corruptf("scan: selection index %d outside decoded page of %d rows", row, rows)
		}
		copy(region[i*width+outOff:i*width+outOff+size], decoded[row*size:(row+1)*size])
	}
	return nil
}
