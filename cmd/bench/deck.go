package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/readoptdb/readopt"
	"github.com/readoptdb/readopt/internal/schema"
	"github.com/readoptdb/readopt/internal/tpch"
)

// opKind says how an op reaches the engine.
type opKind int

const (
	libQuery       opKind = iota // Table.QueryExec, drained with Rows.Next
	wireQuery                    // readopt.Client.Do against a server or coordinator
	wireInsert                   // readopt.Client.Insert of insertBatch rows
	wireIngestRead               // wireQuery counting the ingest table's tail, bracket-checked
)

// op is one entry of a deck. class is the issue's traffic class (its
// share of the mix is fixed); plateau is the finer cost level inside it:
// every op of one plateau costs about the same, and plateaus are what
// keep p50 and p95 off a cost cliff.
type op struct {
	class   string
	plateau string
	kind    opKind
	table   string // key of env.tables for library ops, catalog name for wire ops
	q       readopt.Query
	ref     *reference // nil when the answer is not fixed
}

// plateau is one cost level of a deck: how many ops of a pass sit on it.
type plateau struct {
	class, name string
	ops         int
}

// deckPlateaus lists every workload's plateaus, cheapest first, as
// measured on the reference host (README, "Decks"). Percentile ranks
// are taken against the cumulative shares of this order, so it must be
// kept true: a plateau boundary within 5 points of 50 % or 95 % would put
// a reported percentile on a cost cliff (deck_test.go).
var deckPlateaus = map[string][]plateau{
	"scan_column": scanPlateaus,
	"scan_row":    scanPlateaus,
	// Reads of the served table queue behind its aggregates (one
	// dispatcher per table), so even a point read costs more than an
	// insert or a tail count, which go to the ingest table.
	"serve_mixed_rw": {
		{"insert", "insert", 4},
		{"ingest_read", "ingest_read", 2},
		{"read", "read.point", 7},
		{"read", "read.range", 4},
		{"agg", "agg", 3},
	},
	"shard_scatter": {
		{"select", "select", 4},
		{"agg", "agg.status", 4},
		{"topn", "topn", 6},
		{"agg", "agg.priority", 6},
	},
}

var scanPlateaus = []plateau{
	{"light", "light.k1", 5},
	{"light", "light.k2", 2},
	{"light", "light.k3", 4},
	{"medium", "medium.k4", 3},
	{"medium", "medium.groupby", 2},
	{"heavy", "heavy.k8", 2},
	{"heavy", "heavy.k16", 2},
}

// workloadNames is the fixed order workloads are listed in.
var workloadNames = []string{"scan_column", "scan_row", "serve_mixed_rw", "shard_scatter"}

// sizes fixes the data volume of a run. They are constants of the
// benchmark (full) or of its smoke mode (check); nothing is derived from
// the host at run time.
type sizes struct {
	lineitem    int64 // LINEITEM-Z rows, scan workloads
	orders      int64 // ORDERS-Z rows, scan workloads
	served      int64 // clustered ORDERS rows behind serve_mixed_rw
	preload     int64 // ingest ORDERS rows loaded before the clients start
	sharded     int64 // ORDERS-Z rows across the shard fleet
	drive       int64 // rows of each layer-drive table
	insertBatch int   // rows per POST /insert
	// passes is the fixed work of one timed round, in whole deck passes:
	// about three seconds on the reference host, and enough ops (80 to
	// 340) that the round's p95 falls inside the costliest plateau rather
	// than on its edge. serve_mixed_rw's 17 passes insert 34 000
	// rows, which is exactly four memtable spills and so one compaction:
	// every round carries the same background work.
	passes map[string]int
}

// A run times roundsPerRun rounds when it is given runSeconds, the
// run_seconds of BENCHMARK.json, and proportionally more or fewer for
// another --seconds. The work of a run therefore follows from its flags
// alone, never from the clock: a faster commit finishes sooner, it does
// not insert more rows or trigger more compactions.
const (
	runSeconds   = 20
	roundsPerRun = 6
)

// timedRoundsFor is the number of timed rounds a run of the given
// --seconds makes.
func timedRoundsFor(seconds int) int {
	if n := seconds * roundsPerRun / runSeconds; n > 1 {
		return n
	}
	return 1
}

var (
	fullSizes = sizes{
		lineitem: 200_000, orders: 150_000,
		served: 400_000, preload: 200_000, sharded: 600_000,
		drive: 100_000, insertBatch: 500,
		passes: map[string]int{"scan_column": 6, "scan_row": 4, "serve_mixed_rw": 17, "shard_scatter": 6},
	}
	checkSizes = sizes{
		lineitem: 50_000, orders: 50_000,
		served: 50_000, preload: 50_000, sharded: 50_000,
		drive: 20_000, insertBatch: 500,
		passes: map[string]int{"scan_column": 1, "scan_row": 1, "serve_mixed_rw": 1, "shard_scatter": 1},
	}
)

// spread returns the selectivities of the n copies of one op: the seed
// draws one d in [-0.10, 0.10], half the copies get f·(1+d), half get
// f·(1−d), and an odd copy keeps f. Every seed therefore sends other
// predicates, up to 10 % off the nominal one, while the rows a plateau
// keeps per pass — which is what its work grows with — stay the same
// from seed to seed. A full-table predicate stays one: shrinking it
// would change the class.
func spread(rng *rand.Rand, f float64, n int) []float64 {
	out := make([]float64, n)
	d := 0.0
	if f < 1 {
		d = 0.20*rng.Float64() - 0.10
	}
	for i := range out {
		switch {
		case i >= n/2*2:
			out[i] = f
		case i%2 == 0:
			out[i] = f * (1 + d)
		default:
			out[i] = f * (1 - d)
		}
	}
	return out
}

func below(s *schema.Schema, col string, fraction float64) []readopt.Cond {
	th, err := tpch.Threshold(s, fraction)
	if err != nil {
		panic(err) // only the four paper schemas reach here
	}
	return []readopt.Cond{{Column: col, Op: "<", Value: int(th)}}
}

func countAndSum(col string) []readopt.Agg {
	return []readopt.Agg{{Func: "count"}, {Func: "sum", Column: col}}
}

// buildDeck returns one pass of the workload's deck, plateau by plateau,
// and the rest of the seed's random stream, which runRound draws a fresh
// permutation from for every pass. (One fixed order would decide once and
// for all which ops the two clients of a wire workload run side by side,
// and make a seed fast or slow for a whole run.) The seed moves thresholds
// by up to ±10 % and orders the passes; it never changes how many ops a
// plateau has. Building a deck touches no table, so the same seed always
// gives the same deck and the same sequence of passes.
func buildDeck(workload string, seed int64, sz sizes) ([]op, *rand.Rand, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &deckBuilder{}
	switch workload {
	case "scan_column":
		scanDeck(b, rng, "column")
	case "scan_row":
		scanDeck(b, rng, "row")
	case "serve_mixed_rw":
		serveDeck(b, rng)
	case "shard_scatter":
		shardDeck(b, rng, sz)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return b.deck, rng, nil
}

// deckBuilder accumulates one pass.
type deckBuilder struct{ deck []op }

// add appends one op per selectivity, built by mk.
func (b *deckBuilder) add(fractions []float64, mk func(f float64) op) {
	for _, f := range fractions {
		b.deck = append(b.deck, mk(f))
	}
}

// same is n copies of an op no selectivity applies to.
func same(n int) []float64 { return make([]float64, n) }

// fixed marks an op whose answer does not change during a run: it gets
// a reference that set-up fills from the Scalar path. Inserts and reads
// of the growing ingest tail have none.
func fixed(o op) op {
	o.ref = &reference{}
	return o
}

// scanDeck is the paper's template, select A1..Ak [agg] where A1 < c:
// light ops on ORDERS-Z, medium and heavy ones on LINEITEM-Z. On the row
// workload the medium class also runs on the PAX files.
func scanDeck(b *deckBuilder, rng *rand.Rand, layout string) {
	oz, lz := schema.OrdersZ(), schema.LineitemZ()
	ocols, lcols := readopt.OrdersZ().Columns(), readopt.LineitemZ().Columns()
	orders, lineitem := "orders."+layout, "lineitem."+layout
	sel := func(class, plat, table string, s *schema.Schema, cols []string, k int) func(float64) op {
		return func(f float64) op {
			return fixed(op{class: class, plateau: plat, kind: libQuery, table: table,
				q: readopt.Query{Select: cols[:k], Where: below(s, cols[0], f)}})
		}
	}
	agg := func(k int) func(float64) op {
		return func(f float64) op {
			return fixed(op{class: "light", plateau: fmt.Sprintf("light.k%d", k), kind: libQuery, table: orders,
				q: readopt.Query{Aggs: countAndSum(ocols[k-1]), Where: below(oz, ocols[0], f)}})
		}
	}
	groupBy := func(table string) func(float64) op {
		return func(float64) op {
			return fixed(op{class: "medium", plateau: "medium.groupby", kind: libQuery, table: table,
				q: readopt.Query{GroupBy: []string{"L_RETURNFLAG"}, Aggs: countAndSum("L_QUANTITY")}})
		}
	}
	b.add(spread(rng, 0.10, 3), sel("light", "light.k1", orders, oz, ocols, 1))
	b.add(spread(rng, 0.10, 2), agg(1))
	b.add(spread(rng, 0.10, 2), agg(2))
	b.add(spread(rng, 0.10, 4), sel("light", "light.k3", orders, oz, ocols, 3))
	k4 := spread(rng, 0.10, 3)
	if layout == "row" {
		// The PAX files take the odd copy of each medium op.
		b.add(k4[:2], sel("medium", "medium.k4", lineitem, lz, lcols, 4))
		b.add(k4[2:], sel("medium", "medium.k4", "lineitem.pax", lz, lcols, 4))
		// The PAX copy keeps the row op's reference: the same query must
		// give the same bytes on both single-file layouts.
		g := groupBy(lineitem)(0)
		gpax := g
		gpax.table = "lineitem.pax"
		b.deck = append(b.deck, g, gpax)
	} else {
		b.add(k4, sel("medium", "medium.k4", lineitem, lz, lcols, 4))
		b.add(same(2), groupBy(lineitem))
	}
	b.add(spread(rng, 0.50, 2), sel("heavy", "heavy.k8", lineitem, lz, lcols, 8))
	b.add(spread(rng, 1.0, 2), sel("heavy", "heavy.k16", lineitem, lz, lcols, 16))
}

// serveDeck is the mixed read/write traffic of one server: zone-pruned
// point and 1 % range reads on the clustered table, counts over the
// ingest table's tail, inserts, and grouped full-scan aggregates.
func serveDeck(b *deckBuilder, rng *rand.Rand) {
	cols := []string{"O_ORDERKEY", "O_TOTALPRICE"}
	// Seven days and four ranges, each somewhere else in the date domain.
	for i := 0; i < 7; i++ {
		day := rng.Intn(tpch.OrderDateDomain)
		b.add(same(1), func(float64) op {
			return fixed(op{class: "read", plateau: "read.point", kind: wireQuery, table: servedTable,
				q: readopt.Query{Select: cols, Where: []readopt.Cond{{Column: "O_ORDERDATE", Op: "=", Value: day}}}})
		})
	}
	b.add(spread(rng, 0.01, 4), func(f float64) op {
		days := int(f * tpch.OrderDateDomain)
		lo := rng.Intn(tpch.OrderDateDomain - days)
		return fixed(op{class: "read", plateau: "read.range", kind: wireQuery, table: servedTable,
			q: readopt.Query{Select: cols, Where: []readopt.Cond{
				{Column: "O_ORDERDATE", Op: ">=", Value: lo},
				{Column: "O_ORDERDATE", Op: "<", Value: lo + days},
			}}})
	})
	// The tail predicate's key is only known once the table is preloaded;
	// serveEnv fills it in.
	b.add(same(2), func(float64) op {
		return op{class: "ingest_read", plateau: "ingest_read", kind: wireIngestRead, table: ingestTable,
			q: readopt.Query{Aggs: []readopt.Agg{{Func: "count"}, {Func: "max", Column: "O_ORDERKEY"}},
				Where: []readopt.Cond{{Column: "O_ORDERKEY", Op: ">", Value: 0}}}}
	})
	b.add(same(4), func(float64) op {
		return op{class: "insert", plateau: "insert", kind: wireInsert, table: ingestTable}
	})
	b.add(same(2), func(float64) op {
		return fixed(op{class: "agg", plateau: "agg", kind: wireQuery, table: servedTable,
			q: readopt.Query{GroupBy: []string{"O_ORDERSTATUS"}, Aggs: countAndSum("O_TOTALPRICE")}})
	})
	b.add(same(1), func(float64) op {
		return fixed(op{class: "agg", plateau: "agg", kind: wireQuery, table: servedTable,
			q: readopt.Query{GroupBy: []string{"O_ORDERPRIORITY"},
				Aggs: []readopt.Agg{{Func: "count"}, {Func: "avg", Column: "O_TOTALPRICE"}}}})
	})
}

// shardDeck is the read mix through the coordinator: grouped aggregates
// merged from partial states, top-n re-topped over the union, and a
// filtered select of about a thousand rows.
func shardDeck(b *deckBuilder, rng *rand.Rand, sz sizes) {
	oz := schema.OrdersZ()
	b.add(spread(rng, 1000/float64(sz.sharded), 4), func(f float64) op {
		return fixed(op{class: "select", plateau: "select", kind: wireQuery, table: shardedTable,
			q: readopt.Query{Select: []string{"O_ORDERKEY", "O_CUSTKEY"}, Where: below(oz, "O_ORDERDATE", f)}})
	})
	b.add(same(4), func(float64) op {
		return fixed(op{class: "agg", plateau: "agg.status", kind: wireQuery, table: shardedTable,
			q: readopt.Query{GroupBy: []string{"O_ORDERSTATUS"}, Aggs: []readopt.Agg{{Func: "count"}}}})
	})
	b.add(spread(rng, 0.5, 6), func(f float64) op {
		return fixed(op{class: "topn", plateau: "topn", kind: wireQuery, table: shardedTable,
			q: readopt.Query{Select: []string{"O_ORDERKEY", "O_TOTALPRICE"},
				Where:   below(oz, "O_ORDERDATE", f),
				OrderBy: []readopt.Order{{Column: "O_TOTALPRICE", Desc: true}, {Column: "O_ORDERKEY"}}, Limit: 20}})
	})
	b.add(spread(rng, 0.9, 6), func(f float64) op {
		return fixed(op{class: "agg", plateau: "agg.priority", kind: wireQuery, table: shardedTable,
			q: readopt.Query{GroupBy: []string{"O_ORDERPRIORITY"},
				Aggs:  []readopt.Agg{{Func: "count"}, {Func: "sum", Column: "O_TOTALPRICE"}, {Func: "avg", Column: "O_TOTALPRICE"}},
				Where: below(oz, "O_ORDERDATE", f)}})
	})
}

// Catalog names of the wire workloads' tables.
const (
	servedTable  = "orders"
	ingestTable  = "orders_ingest"
	shardedTable = "orders"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is left untouched.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
