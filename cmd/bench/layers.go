package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/readoptdb/readopt"
	"github.com/readoptdb/readopt/internal/aio"
	"github.com/readoptdb/readopt/internal/bitio"
	"github.com/readoptdb/readopt/internal/compress"
	"github.com/readoptdb/readopt/internal/cpumodel"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/plan"
	"github.com/readoptdb/readopt/internal/schema"
	"github.com/readoptdb/readopt/internal/store"
	"github.com/readoptdb/readopt/internal/tpch"
	"github.com/readoptdb/readopt/internal/wos"
)

// The layer drives time one internal package at a time through its
// public functions, on fixed data they load themselves. They do not
// depend on the workload, so the same ledger row can be compared across
// workloads and a change in one shows which layer moved. They run from
// here, outside the engine; spans inside it are a later change.

// The engine's I/O unit and prefetch depth, so the aio drive reads the
// way a scan does. plan/scan.go keeps them private; driveMedium holds
// the unit against what a traced query reports and fails when the engine
// has moved away from it. The depth cannot be observed from outside.
const (
	ioUnit  = 128 << 10
	ioDepth = 48
)

// blockValues is the run of values the kernel drives work on: a few
// column pages' worth, small enough to stay in L1/L2.
const blockValues = 4096

// perCall returns the median over five trials of f's cost in
// nanoseconds, each trial long enough (≥ 10 ms) to dwarf the clock.
func perCall(f func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= 10*time.Millisecond {
			break
		}
		n *= 2
	}
	trials := make([]float64, 5)
	for t := range trials {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		trials[t] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(trials)
}

// medianRun returns the median wall time of three runs of f.
func medianRun(f func() error) (time.Duration, error) {
	ds := make([]time.Duration, 3)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[1], nil
}

// layerDrives runs every drive under dir and records its metrics.
func layerDrives(dir string, sz sizes, ms *metricSet) error {
	if err := driveKernels(ms); err != nil {
		return fmt.Errorf("kernel drives: %w", err)
	}
	if err := driveOperators(sz, ms); err != nil {
		return fmt.Errorf("operator drives: %w", err)
	}
	if err := driveTables(filepath.Join(dir, "drive"), sz, ms); err != nil {
		return fmt.Errorf("table drives: %w", err)
	}
	if err := driveWOS(filepath.Join(dir, "drive-wos"), sz, ms); err != nil {
		return fmt.Errorf("wos drive: %w", err)
	}
	return nil
}

// driveKernels times bitio's word-at-a-time unpack, each codec's page
// decode and the predicate-on-codes kernel on one block of values.
func driveKernels(ms *metricSet) error {
	const width = 14 // ORDERS-Z O_ORDERDATE, the paper's packed predicate column
	packed := make([]byte, bitio.SizeBytes(blockValues*width))
	for i := 0; i < blockValues; i++ {
		bitio.WriteAt(packed, i*width, width, uint64(i*37%(1<<width)))
	}
	codes := make([]uint64, blockValues)
	ms.set("bitio.unpack_ns_per_value", perCall(func() {
		bitio.UnpackBlock(packed, 0, width, blockValues, codes)
	})/blockValues)

	sel := make([]int32, blockValues)
	tenth := compress.CodeMatch{Lo: 0, Hi: (1 << width) / 10}
	ms.set("compress.match_ns_per_value", perCall(func() {
		compress.EvalPredicate(codes, blockValues, tenth, sel)
	})/blockValues)

	intAttr := func(enc schema.Encoding, bits int) schema.Attribute {
		return schema.Attribute{Name: "V", Type: schema.IntType, Enc: enc, Bits: bits}
	}
	running := int32(0)
	for _, c := range []struct {
		name  string
		attr  schema.Attribute
		value func(i int) int32
	}{
		{"bitpack", intAttr(schema.BitPack, 14), func(i int) int32 { return int32(i * 37 % (1 << 14)) }},
		{"dict", intAttr(schema.Dict, 4), func(i int) int32 { return int32(i % 11) }},
		{"for", intAttr(schema.FOR, 16), func(i int) int32 { return 100_000 + int32(i*31%60_000) }},
		{"fordelta", intAttr(schema.FORDelta, 8), func(i int) int32 { running += int32(i%4) + 1; return running }},
	} {
		ns, err := driveCodec(c.attr, c.value)
		if err != nil {
			return fmt.Errorf("codec %s: %w", c.name, err)
		}
		ms.set("compress.decode_ns_per_value."+c.name, ns/blockValues)
	}
	return nil
}

// driveCodec encodes one block with the attribute's codec and times
// decoding it the way page.ColReader does: the batch decoder where the
// codec has one, the sequential bit reader otherwise.
func driveCodec(attr schema.Attribute, value func(i int) int32) (float64, error) {
	raw := make([]byte, 4*blockValues)
	var dict *compress.Dictionary
	if attr.Enc == schema.Dict {
		dict = compress.NewDictionary(4)
	}
	for i := 0; i < blockValues; i++ {
		binary.LittleEndian.PutUint32(raw[4*i:], uint32(value(i)))
		if dict != nil {
			dict.Add(raw[4*i : 4*i+4])
		}
	}
	codec, err := compress.New(attr, dict)
	if err != nil {
		return 0, err
	}
	packed := make([]byte, bitio.SizeBytes(blockValues*codec.Bits()))
	base, err := codec.EncodePage(bitio.NewWriter(packed), raw, 4, blockValues)
	if err != nil {
		return 0, err
	}
	out := make([]byte, len(raw))
	decode := func() error {
		if bd, ok := codec.(compress.BlockDecoder); ok {
			return bd.DecodeBlock(packed, 0, blockValues, base, out, 4)
		}
		return codec.DecodePage(bitio.NewReader(packed), out, 4, blockValues, base)
	}
	if err := decode(); err != nil {
		return 0, err
	}
	if !bytes.Equal(out, raw) {
		return 0, fmt.Errorf("decode does not round-trip")
	}
	return perCall(func() { _ = decode() }), nil
}

// driveOperators times the block-iterator operators over decoded ORDERS
// tuples held in memory, so nothing below exec is on the clock.
func driveOperators(sz sizes, ms *metricSet) error {
	sch := schema.Orders()
	gen := tpch.Orders(dataSeed)
	tuples := make([]byte, int(sz.drive)*sch.Width())
	for i := 0; i < int(sz.drive); i++ {
		gen.Next(tuples[i*sch.Width() : (i+1)*sch.Width()])
	}
	countSum := []exec.AggSpec{{Func: exec.Count}, {Func: exec.Sum, Attr: schema.OTotalPrice}}
	for _, d := range []struct {
		metric string
		build  func(src exec.Operator) (exec.Operator, error)
	}{
		{"exec.hashagg_ns_per_tuple", func(src exec.Operator) (exec.Operator, error) {
			return exec.NewHashAggregate(src, []int{schema.OOrderPriority}, countSum, nil)
		}},
		// O_SHIPPRIORITY is constant, so the input is trivially clustered
		// on it, which is what the sort-based aggregate requires.
		{"exec.sortagg_ns_per_tuple", func(src exec.Operator) (exec.Operator, error) {
			return exec.NewSortAggregate(src, []int{schema.OShipPriority}, countSum, nil)
		}},
		{"exec.topn_ns_per_tuple", func(src exec.Operator) (exec.Operator, error) {
			return exec.NewTopN(src, []exec.SortKey{{Attr: schema.OTotalPrice, Desc: true}}, 20, nil)
		}},
		{"exec.filter_ns_per_tuple", func(src exec.Operator) (exec.Operator, error) {
			return exec.NewFilter(src, []exec.Predicate{exec.IntPred(schema.OCustKey, exec.Lt, 150_000)}, nil)
		}},
	} {
		took, err := medianRun(func() error {
			src, err := exec.NewSliceSource(sch, tuples, 0)
			if err != nil {
				return err
			}
			op, err := d.build(src)
			if err != nil {
				return err
			}
			_, err = exec.Drain(op)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", d.metric, err)
		}
		ms.set(d.metric, float64(took.Nanoseconds())/float64(sz.drive))
	}
	return nil
}

// driveTables loads LINEITEM-Z in every layout and drives, on those
// files, the layers between the store and the facade.
func driveTables(dir string, sz sizes, ms *metricSet) error {
	tables, err := driveStore(dir, sz, ms)
	if err != nil {
		return err
	}
	if err := driveMedium(tables[store.Column], sz, ms); err != nil {
		return err
	}
	if err := driveSingleFile(tables, ms); err != nil {
		return err
	}
	if err := driveScans(tables, sz, ms); err != nil {
		return err
	}
	return driveShare(filepath.Join(dir, "orders.column"), sz, ms)
}

// driveStore times the bulk load of the three layouts and an open.
func driveStore(dir string, sz sizes, ms *metricSet) (map[store.Layout]*store.Table, error) {
	tables := map[store.Layout]*store.Table{}
	var loading time.Duration
	for _, l := range []store.Layout{store.Column, store.Row, store.PAX} {
		start := time.Now()
		t, err := store.LoadSynthetic(filepath.Join(dir, "lineitem."+string(l)), schema.LineitemZ(), l, page.DefaultSize, dataSeed, sz.drive)
		if err != nil {
			return nil, err
		}
		loading += time.Since(start)
		tables[l] = t
		ms.set("store.bytes_per_row."+string(l), float64(t.TotalDataBytes())/float64(t.Tuples))
	}
	ms.set("store.load_rows_per_s", float64(3*sz.drive)/loading.Seconds())
	opening, err := medianRun(func() error {
		_, err := store.Open(tables[store.Column].Dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	ms.set("store.open_ms", float64(opening)/1e6)
	return tables, nil
}

// mediumSpec is the medium query of the scan decks, select A1..A4 where
// A1 < c at 10 %, as the plan layer sees it.
func mediumSpec() (plan.Spec, error) {
	tenth, err := tpch.Threshold(schema.LineitemZ(), 0.10)
	if err != nil {
		return plan.Spec{}, err
	}
	return plan.Spec{Proj: []int{0, 1, 2, 3}, Preds: []exec.Predicate{exec.IntPred(schema.LPartKey, exec.Lt, tenth)}}, nil
}

// driveMedium takes the medium query apart on the column table: reading
// its four column files (aio), decoding every page of them (page) and
// compiling it (plan), each on its own. It ends with the ledger's
// conservation row: those layers plus the predicate match, summed, over
// the same query end to end through the facade. It is a sanity row, not
// an identity: the vectorized scan materializes only selected values and
// overlaps reads with decode, and the facade adds reader set-up the drives
// leave out.
func driveMedium(col *store.Table, sz sizes, ms *metricSet) error {
	lz := col.Schema
	medium, err := mediumSpec()
	if err != nil {
		return err
	}
	var colBytes, colUnits int64
	reading, err := medianRun(func() error {
		colBytes, colUnits = 0, 0
		for _, a := range medium.Proj {
			n, units, err := drainFile(col.ColumnPath(a))
			if err != nil {
				return err
			}
			colBytes += n
			colUnits += units
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("aio.read_mb_per_s", float64(colBytes)/1e6/reading.Seconds())

	var decoders []pageDecoder
	for _, a := range medium.Proj {
		r, err := page.NewColReader(lz.Attrs[a], col.PageSize, col.Dicts[a])
		if err != nil {
			return err
		}
		decoders = append(decoders, pageDecoder{col.ColumnPath(a), lz.Attrs[a].Type.Size * r.Capacity(), r.Decode})
	}
	decoding, pages, err := decodePages(col.PageSize, decoders...)
	if err != nil {
		return err
	}
	ms.set("page.col_decode_ns_per_page", float64(decoding.Nanoseconds())/float64(pages))

	compileNS := perCall(func() { _, _ = plan.Compile(col, medium) })
	ms.set("plan.compile_us_per_query", compileNS/1e3)

	facade, err := readopt.OpenTable(col.Dir)
	if err != nil {
		return err
	}
	q := readopt.Query{Select: readopt.LineitemZ().Columns()[:4], Where: below(lz, "L_PARTKEY", 0.10)}
	rows, err := facade.QueryExec(q, readopt.ExecOptions{Trace: true})
	if err != nil {
		return err
	}
	if err := drainRows(rows); err != nil {
		return err
	}
	if io := rows.Trace().IO; io.BytesRead != colBytes || io.Units != colUnits {
		return fmt.Errorf("the engine read the medium query's columns as %d bytes in %d units, the aio drive as %d in %d: ioUnit (%d) is no longer the engine's", io.BytesRead, io.Units, colBytes, colUnits, ioUnit)
	}
	endToEnd, err := medianRun(func() error {
		rows, err := facade.QueryExec(q, readopt.ExecOptions{})
		if err != nil {
			return err
		}
		return drainRows(rows)
	})
	if err != nil {
		return err
	}
	matchNS := ms.get("compress.match_ns_per_value") * float64(sz.drive)
	layers := compileNS + float64(reading.Nanoseconds()) + float64(decoding.Nanoseconds()) + matchNS
	ms.set("layers.sum_over_e2e", layers/float64(endToEnd.Nanoseconds()))
	return nil
}

// driveSingleFile times whole-page decode of the row and PAX files.
func driveSingleFile(tables map[store.Layout]*store.Table, ms *metricSet) error {
	row, pax := tables[store.Row], tables[store.PAX]
	rowReader, err := page.NewRowReader(row.Schema, row.PageSize, row.Dicts)
	if err != nil {
		return err
	}
	d, pages, err := decodePages(row.PageSize, pageDecoder{row.RowPath(), row.Schema.Width() * rowReader.Capacity(), rowReader.Decode})
	if err != nil {
		return err
	}
	ms.set("page.row_decode_ns_per_page", float64(d.Nanoseconds())/float64(pages))
	paxReader, err := page.NewPAXReader(pax.Schema, pax.PageSize, pax.Dicts)
	if err != nil {
		return err
	}
	d, pages, err = decodePages(pax.PageSize, pageDecoder{pax.PAXPath(), pax.Schema.Width() * paxReader.Capacity(), paxReader.Decode})
	if err != nil {
		return err
	}
	ms.set("page.pax_decode_ns_per_page", float64(d.Nanoseconds())/float64(pages))
	return nil
}

// driveScans times the compiled medium scan on each layout (plan + scan)
// and a heavy column scan at dop 1 against dop 2 (exec's exchange).
func driveScans(tables map[store.Layout]*store.Table, sz sizes, ms *metricSet) error {
	medium, err := mediumSpec()
	if err != nil {
		return err
	}
	for l, name := range map[store.Layout]string{store.Column: "col", store.Row: "row", store.PAX: "pax"} {
		took, err := medianRun(func() error { return runPlan(tables[l], medium) })
		if err != nil {
			return err
		}
		ms.set("scan."+name+"_rows_per_s", float64(sz.drive)/took.Seconds())
	}
	half, err := tpch.Threshold(schema.LineitemZ(), 0.50)
	if err != nil {
		return err
	}
	heavy := plan.Spec{Proj: []int{0, 1, 2, 3, 4, 5, 6, 7}, Preds: []exec.Predicate{exec.IntPred(schema.LPartKey, exec.Lt, half)}}
	serial, err := medianRun(func() error { return runPlan(tables[store.Column], heavy) })
	if err != nil {
		return err
	}
	heavy.Dop = 2
	parallel, err := medianRun(func() error { return runPlan(tables[store.Column], heavy) })
	if err != nil {
		return err
	}
	ms.set("exec.dop2_speedup", serial.Seconds()/parallel.Seconds())
	return nil
}

// drainRows pulls a result to its end and closes it.
func drainRows(rows *readopt.Rows) error {
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		_ = rows.Close()
		return err
	}
	return rows.Close()
}

// drainFile reads path through the prefetching OS reader, as a scan's
// column cursor does, and returns the bytes and I/O units delivered.
func drainFile(path string) (n, units int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r, err := aio.NewOSReader(f, ioUnit, ioDepth)
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	for {
		buf, err := r.Next()
		if err == io.EOF {
			return n, units, nil
		}
		if err != nil {
			return n, units, err
		}
		n += int64(len(buf))
		units++
	}
}

// pageDecoder decodes every page of one data file held in memory.
type pageDecoder struct {
	path     string
	dstBytes int
	decode   func(pg, dst []byte) (int, error)
}

// decodePages returns the median time of three sweeps that decode every
// page of every file, and the pages per sweep.
func decodePages(pageSize int, decoders ...pageDecoder) (time.Duration, int, error) {
	files := make([][]byte, len(decoders))
	pages := 0
	for i, d := range decoders {
		blob, err := os.ReadFile(d.path)
		if err != nil {
			return 0, 0, err
		}
		files[i] = blob
		pages += len(blob) / pageSize
	}
	took, err := medianRun(func() error {
		for i, d := range decoders {
			dst := make([]byte, d.dstBytes)
			for off := 0; off+pageSize <= len(files[i]); off += pageSize {
				if _, err := d.decode(files[i][off:off+pageSize], dst); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return took, pages, err
}

// runPlan compiles spec against t and drains it: the path every query
// takes below the facade.
func runPlan(t *store.Table, spec plan.Spec) error {
	p, err := plan.Compile(t, spec)
	if err != nil {
		return err
	}
	op, err := p.Operator(plan.ExecOpts{Counters: &cpumodel.Counters{}})
	if err != nil {
		return err
	}
	_, err = exec.Drain(op)
	return err
}

// driveShare compares eight light queries answered by one shared scan
// (Table.QueryBatch) with the same eight run one after another.
func driveShare(dir string, sz sizes, ms *metricSet) error {
	t, err := readopt.GenerateTPCH(dir, readopt.OrdersZ(), readopt.ColumnLayout, sz.drive, dataSeed, readopt.LoadOptions{})
	if err != nil {
		return err
	}
	cols := t.Schema().Columns()
	queries := make([]readopt.Query, 8)
	for i := range queries {
		queries[i] = readopt.Query{Select: cols[:1+i%3], Where: below(schema.OrdersZ(), cols[0], 0.05+0.01*float64(i))}
	}
	solo, err := medianRun(func() error {
		for _, q := range queries {
			rows, err := t.QueryExec(q, readopt.ExecOptions{})
			if err != nil {
				return err
			}
			if err := drainRows(rows); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	batch, err := medianRun(func() error {
		all, err := t.QueryBatch(queries)
		if err != nil {
			return err
		}
		var first error
		for _, rows := range all {
			if err := drainRows(rows); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
	if err != nil {
		return err
	}
	ms.set("share.batch8_cost_ratio", batch.Seconds()/solo.Seconds())
	return nil
}

// driveWOS walks the write path once with the compactor off, so each
// step is on the clock exactly once: batched inserts (spilling as the
// memtable fills), the final flush, a read over the unmerged runs, the
// compaction, and the same read over the merged generation.
func driveWOS(dir string, sz sizes, ms *metricSet) error {
	sch := schema.Orders()
	st, err := wos.Create(dir, sch, store.Column, wos.Options{Key: "O_ORDERKEY", MemtableBytes: ingestMemtableBytes, DisableCompactor: true})
	if err != nil {
		return err
	}
	defer st.Close()
	const batch = 500
	n := int(sz.drive) / 2 / batch * batch
	gen := tpch.Orders(dataSeed)
	tuples := make([]byte, n*sch.Width())
	for i := 0; i < n; i++ {
		gen.Next(tuples[i*sch.Width() : (i+1)*sch.Width()])
	}
	start := time.Now()
	for off := 0; off < len(tuples); off += batch * sch.Width() {
		if err := st.InsertBatch(tuples[off:off+batch*sch.Width()], batch); err != nil {
			return err
		}
	}
	ms.set("wos.insert_us_per_row", float64(time.Since(start).Microseconds())/float64(n))
	start = time.Now()
	if err := st.Flush(); err != nil {
		return err
	}
	ms.set("wos.flush_ms", float64(time.Since(start))/1e6)

	count := plan.Spec{Proj: []int{schema.OTotalPrice}, Aggs: []exec.AggSpec{{Func: exec.Count}, {Func: exec.Sum, Attr: 0}}}
	read := func() error {
		sn := st.Snapshot()
		defer sn.Release()
		p, err := plan.Compile(sn.Table(), count)
		if err != nil {
			return err
		}
		op, err := p.Operator(plan.ExecOpts{Counters: &cpumodel.Counters{}, Delta: sn})
		if err != nil {
			return err
		}
		_, err = exec.Drain(op)
		return err
	}
	overDelta, err := medianRun(read)
	if err != nil {
		return err
	}
	start = time.Now()
	if err := st.Compact(); err != nil {
		return err
	}
	ms.set("wos.compact_ms", float64(time.Since(start))/1e6)
	merged, err := medianRun(read)
	if err != nil {
		return err
	}
	ms.set("wos.delta_read_penalty", overDelta.Seconds()/merged.Seconds())
	written := st.Metrics().SpilledBytes + st.Gen().TotalDataBytes()
	ms.set("wos.bytes_written_per_user_byte", float64(written)/float64(n*sch.Width()))
	return nil
}
