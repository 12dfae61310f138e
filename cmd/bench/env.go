package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/readoptdb/readopt"
	"github.com/readoptdb/readopt/internal/fault"
	"github.com/readoptdb/readopt/internal/page"
	"github.com/readoptdb/readopt/internal/schema"
	"github.com/readoptdb/readopt/internal/server"
	"github.com/readoptdb/readopt/internal/shard"
	"github.com/readoptdb/readopt/internal/store"
	"github.com/readoptdb/readopt/internal/tpch"
)

// dataSeed fixes the generated tables: --seed moves queries, never data,
// so storage and page counts repeat exactly from run to run.
const dataSeed = 1

// Ingest table knobs of serve_mixed_rw. Flush policy: none beyond the
// engine's own — an acknowledged insert lives in the memtable until the
// 256 KB bound spills it to a run file; nothing is fsynced (ROADMAP 4).
const (
	ingestMemtableBytes = 256 << 10
	ingestCompactAfter  = 4
)

// reference is the known-good answer to one query, taken from the
// engine's Scalar path: the row count and an order-sensitive digest of
// every value.
type reference struct {
	set  bool
	rows int64
	sum  uint64
}

// digest folds result rows into an FNV-1a sum. Integers arrive as int64
// from Rows.Values and as float64 after a JSON hop; both hash alike.
type digest struct {
	rows int64
	sum  uint64
}

func newDigest() *digest { return &digest{sum: 14695981039346656037} }

func (d *digest) bytes(p []byte) {
	for _, b := range p {
		d.sum = (d.sum ^ uint64(b)) * 1099511628211
	}
}

func (d *digest) row(vals []any) error {
	d.rows++
	var buf [9]byte
	for _, v := range vals {
		var n int64
		switch x := v.(type) {
		case int64:
			n = x
		case float64:
			n = int64(x)
		case string:
			buf[0] = 's'
			d.bytes(buf[:1])
			d.bytes([]byte(x))
			continue
		default:
			return fmt.Errorf("result value of unexpected type %T", v)
		}
		buf[0] = 'i'
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(n >> (8 * i))
		}
		d.bytes(buf[:])
	}
	return nil
}

func (d *digest) matches(ref *reference) error {
	if d.rows != ref.rows || d.sum != ref.sum {
		return fmt.Errorf("wrong answer: %d rows digest %x, reference has %d rows digest %x", d.rows, d.sum, ref.rows, ref.sum)
	}
	return nil
}

// env is one set-up workload: its data, its deck, and — for the wire
// workloads — the servers and clients. Everything in it is built by
// setUp and torn down by close.
type env struct {
	workload string
	sz       sizes
	dir      string
	deck     []op
	order    *rand.Rand // the seed's stream: one permutation of the deck per pass
	clients  int
	// tables are the local handles: the table a library op runs on, and
	// for a wire op the table its reference answer is computed from
	// (keyed by op.table either way).
	tables map[string]*readopt.Table
	// stored are the tables whose directories count as storage.
	stored []*readopt.Table

	singleURL string // shard_scatter: one server holding the unsharded table
	servers   []*server.Server
	coord     *shard.Coordinator
	plain     []*readopt.Client // one per client, default transport
	traced    []*readopt.Client // one per client, span-recording transport
	stops     []func() error    // listeners and servers, stopped in reverse

	ingest     *readopt.Table
	ingestBase readopt.IngestStats // the write path's counters when the clients start
	insertMu   sync.Mutex
	insertGen  *tpch.Generator
	sentRows   atomic.Int64 // rows whose insert has been sent
	ackedRows  atomic.Int64 // rows whose insert has been acknowledged
}

// setUp generates and loads the workload's tables under dir, starts its
// servers, fills every reference answer from the Scalar path and runs
// two fully verified deck passes. It is what setup_s times.
func setUp(workload string, seed int64, sz sizes, dir string) (*env, error) {
	deck, order, err := buildDeck(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	e := &env{workload: workload, sz: sz, dir: dir, deck: deck, order: order, clients: 1, tables: map[string]*readopt.Table{}}
	switch workload {
	case "scan_column":
		err = e.loadScan(readopt.ColumnLayout)
	case "scan_row":
		err = e.loadScan(readopt.RowLayout, readopt.PAXLayout)
	case "serve_mixed_rw":
		err = e.startServe()
	case "shard_scatter":
		err = e.startShards()
	}
	if err == nil {
		err = e.fillReferences()
	}
	if err == nil {
		var r round
		r, err = e.runRound(2, verify, nil)
		if err == nil && r.failed > 0 {
			err = fmt.Errorf("warm-up passes: %d of %d ops failed: %v", r.failed, r.ops, r.firstErr)
		}
	}
	if err != nil {
		_ = e.close()
		return nil, fmt.Errorf("set up %s: %w", workload, err)
	}
	return e, nil
}

// loadScan loads ORDERS-Z in the first layout and LINEITEM-Z in each.
func (e *env) loadScan(layouts ...readopt.Layout) error {
	for i, l := range layouts {
		t, err := readopt.GenerateTPCH(filepath.Join(e.dir, "lineitem."+string(l)), readopt.LineitemZ(), l, e.sz.lineitem, dataSeed, readopt.LoadOptions{})
		if err != nil {
			return err
		}
		e.addTable("lineitem."+string(l), t)
		if i > 0 {
			continue
		}
		t, err = readopt.GenerateTPCH(filepath.Join(e.dir, "orders."+string(l)), readopt.OrdersZ(), l, e.sz.orders, dataSeed, readopt.LoadOptions{})
		if err != nil {
			return err
		}
		e.addTable("orders."+string(l), t)
	}
	return nil
}

func (e *env) addTable(key string, t *readopt.Table) {
	e.tables[key] = t
	e.stored = append(e.stored, t)
}

// startServe builds serve_mixed_rw: a read-only ORDERS table clustered
// on O_ORDERDATE (ORDERS-Z cannot be clustered: its FOR-delta order key
// needs generation order) and a preloaded ingest ORDERS table, behind
// one in-process server on a loopback listener, with two clients.
func (e *env) startServe() error {
	e.clients = 2
	served, err := readopt.GenerateTPCH(filepath.Join(e.dir, "served"), readopt.Orders(), readopt.ColumnLayout,
		e.sz.served, dataSeed, readopt.LoadOptions{ClusterBy: "O_ORDERDATE"})
	if err != nil {
		return err
	}
	e.addTable(servedTable, served)
	ing, err := readopt.CreateIngest(filepath.Join(e.dir, "ingest"), readopt.Orders(), readopt.ColumnLayout, readopt.IngestOptions{
		Key: "O_ORDERKEY", MemtableBytes: ingestMemtableBytes, CompactAfterRuns: ingestCompactAfter,
	})
	if err != nil {
		return err
	}
	e.ingest = ing
	e.stored = append(e.stored, ing)
	e.stops = append(e.stops, ing.CloseIngest)
	e.insertGen = tpch.Orders(dataSeed + 1)
	var lastKey int
	for left := e.sz.preload; left > 0; {
		n := int64(8192)
		if n > left {
			n = left
		}
		rows := e.nextInsertRows(int(n))
		lastKey = rows[len(rows)-1][schema.OOrderKey].(int)
		if err := ing.InsertBatch(rows); err != nil {
			return err
		}
		left -= n
	}
	if err := settle(ing); err != nil {
		return err
	}
	e.ingestBase = ing.IngestStats()
	// Everything inserted from here on has a key above the preload's, so
	// a count over that tail equals the rows inserted since.
	for i := range e.deck {
		if e.deck[i].kind == wireIngestRead {
			e.deck[i].q.Where = []readopt.Cond{{Column: "O_ORDERKEY", Op: ">", Value: lastKey}}
		}
	}
	srv := server.New(server.Config{Workers: 2})
	if err := srv.AddTable(servedTable, served); err != nil {
		return err
	}
	if err := srv.AddTable(ingestTable, ing); err != nil {
		return err
	}
	url, err := e.serve(srv)
	if err != nil {
		return err
	}
	e.dial(url)
	return nil
}

// settle folds the ingest table's memtable and runs into its generation.
func settle(t *readopt.Table) error {
	if err := t.Flush(); err != nil {
		return err
	}
	return t.Compact()
}

// nextInsertRows returns the next n generated ORDERS rows as wire
// values. One generator feeds the preload and both clients, so keys
// only ever grow.
func (e *env) nextInsertRows(n int) [][]any {
	e.insertMu.Lock()
	defer e.insertMu.Unlock()
	s := e.insertGen.Schema()
	tuple := make([]byte, s.Width())
	rows := make([][]any, n)
	for i := range rows {
		e.insertGen.Next(tuple)
		row := make([]any, s.NumAttrs())
		for a, attr := range s.Attrs {
			if attr.Type.Kind == schema.Int32 {
				row[a] = int(s.Int32At(tuple, a))
			} else {
				row[a] = strings.TrimRight(string(s.TextAt(tuple, a)), " ")
			}
		}
		rows[i] = row
	}
	return rows
}

// startShards builds shard_scatter: ORDERS-Z cut into two contiguous
// ranges, one in-process shard server each, a coordinator over them with
// hedging and probing off (fan-out is then exactly one request per
// partition), and two clients on the coordinator's handler. A third
// server holds the unsharded table: the reference answers come from it,
// and so does the coordinator-over-single latency ratio.
func (e *env) startShards() error {
	e.clients = 2
	const parts = 2
	dirs := []string{filepath.Join(e.dir, "full")}
	bounds := []int64{0}
	for p := 0; p < parts; p++ {
		dirs = append(dirs, filepath.Join(e.dir, fmt.Sprintf("part%d", p)))
		bounds = append(bounds, e.sz.sharded*int64(p+1)/parts)
	}
	if err := loadRanges(dirs, bounds, e.sz.sharded); err != nil {
		return err
	}
	var partitions [][]string
	for i, dir := range dirs {
		t, err := readopt.OpenTable(dir)
		if err != nil {
			return err
		}
		srv := server.New(server.Config{Workers: 2})
		if err := srv.AddTable(shardedTable, t); err != nil {
			return err
		}
		url, err := e.serve(srv)
		if err != nil {
			return err
		}
		if i == 0 {
			e.tables[shardedTable] = t
			e.singleURL = url
			continue
		}
		e.stored = append(e.stored, t)
		partitions = append(partitions, []string{url})
	}
	coord, err := shard.New(shard.Config{
		Partitions:    partitions,
		HedgeAfter:    -1,
		ProbeInterval: -1,
		Backoff:       fault.Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	e.coord = coord
	e.stops = append(e.stops, func() error { coord.Close(); return nil })
	url, err := e.listen(coord.Handler())
	if err != nil {
		return err
	}
	e.dial(url)
	return nil
}

// loadRanges generates n ORDERS-Z rows once and writes them to dirs[0]
// whole and to dirs[1+p] for the rows in [bounds[p], bounds[p+1]).
func loadRanges(dirs []string, bounds []int64, n int64) error {
	sch := schema.OrdersZ()
	ws := make([]*store.Writer, len(dirs))
	abort := func() {
		for _, w := range ws {
			if w != nil {
				w.Abort()
			}
		}
	}
	for i, dir := range dirs {
		w, err := store.Create(dir, sch, store.Column, page.DefaultSize)
		if err != nil {
			abort()
			return err
		}
		ws[i] = w
	}
	gen := tpch.Orders(dataSeed)
	tuple := make([]byte, sch.Width())
	part := 0
	for i := int64(0); i < n; i++ {
		gen.Next(tuple)
		for i >= bounds[part+1] {
			part++
		}
		if err := ws[0].Append(tuple); err != nil {
			abort()
			return err
		}
		if err := ws[1+part].Append(tuple); err != nil {
			abort()
			return err
		}
	}
	for i, w := range ws {
		ws[i] = nil
		if err := w.Close(); err != nil {
			abort()
			return err
		}
	}
	return nil
}

// serve puts a query server on a loopback listener.
func (e *env) serve(srv *server.Server) (string, error) {
	e.servers = append(e.servers, srv)
	url, err := e.listen(srv.Handler())
	if err != nil {
		return "", err
	}
	e.stops = append(e.stops, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	})
	return url, nil
}

// listen serves h on an ephemeral loopback port until the env closes.
func (e *env) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	e.stops = append(e.stops, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	})
	return "http://" + l.Addr().String(), nil
}

// dial gives every client its own connection pool to url, once plain and
// once through the span-recording transport the traced pass uses.
func (e *env) dial(url string) {
	for c := 0; c < e.clients; c++ {
		plain := &http.Transport{MaxIdleConnsPerHost: 2}
		spanned := &http.Transport{MaxIdleConnsPerHost: 2}
		e.plain = append(e.plain, readopt.NewClient(url, &http.Client{Transport: plain}))
		e.traced = append(e.traced, readopt.NewClient(url, &http.Client{Transport: spanTransport{spanned}}))
		e.stops = append(e.stops, func() error {
			plain.CloseIdleConnections()
			spanned.CloseIdleConnections()
			return nil
		})
	}
}

// fillReferences answers every fixed op's query once through the Scalar
// path of the local table; ops that send the same query to the same
// table are answered together.
func (e *env) fillReferences() error {
	answered := map[string]reference{}
	for i := range e.deck {
		o := &e.deck[i]
		if o.ref == nil || o.ref.set {
			continue
		}
		t := e.tables[o.table]
		if t == nil {
			return fmt.Errorf("deck names table %q, which %s did not load", o.table, e.workload)
		}
		key := fmt.Sprintf("%s %+v", o.table, o.q)
		ref, ok := answered[key]
		if !ok {
			rows, err := t.QueryExec(o.q, readopt.ExecOptions{Scalar: true})
			if err != nil {
				return fmt.Errorf("reference for %s: %w", o.plateau, err)
			}
			d := newDigest()
			err = digestRows(rows, d)
			if cerr := rows.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("reference for %s: %w", o.plateau, err)
			}
			ref = reference{set: true, rows: d.rows, sum: d.sum}
			answered[key] = ref
		}
		*o.ref = ref
	}
	return nil
}

func digestRows(rows *readopt.Rows, d *digest) error {
	for rows.Next() {
		vals, err := rows.Values()
		if err != nil {
			return err
		}
		if err := d.row(vals); err != nil {
			return err
		}
	}
	return rows.Err()
}

// close stops the servers and closes the ingest write path. The data
// directory is the caller's to remove.
func (e *env) close() error {
	var first error
	for i := len(e.stops) - 1; i >= 0; i-- {
		if err := e.stops[i](); err != nil && first == nil {
			first = err
		}
	}
	e.stops = nil
	return first
}

// storageRatio is bytes on disk of every stored table directory over
// rows × decoded tuple width, after folding the write path down.
func (e *env) storageRatio() (float64, error) {
	if e.ingest != nil {
		if err := settle(e.ingest); err != nil {
			return 0, err
		}
	}
	var disk, user int64
	for _, t := range e.stored {
		n, err := dirBytes(t.Dir())
		if err != nil {
			return 0, err
		}
		disk += n
		user += t.Rows() * int64(t.Schema().TupleBytes())
	}
	return float64(disk) / float64(user), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// freshDir makes an empty directory for one set-up under base.
func freshDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "readopt-bench-")
}
