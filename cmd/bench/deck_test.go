package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/readoptdb/readopt"
)

// classShares is the issue's mix per workload, in percent of a pass.
var classShares = map[string]map[string]float64{
	"scan_column":    {"light": 55, "medium": 25, "heavy": 20},
	"scan_row":       {"light": 55, "medium": 25, "heavy": 20},
	"serve_mixed_rw": {"read": 55, "ingest_read": 10, "insert": 20, "agg": 15},
	"shard_scatter":  {"agg": 50, "topn": 30, "select": 20},
}

func TestDeckSharesAndPlateaus(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []int64{1, 2, 99} {
			deck, _, err := buildDeck(w, seed, fullSizes)
			if err != nil {
				t.Fatal(err)
			}
			byClass, byPlateau := map[string]int{}, map[string]int{}
			for _, o := range deck {
				byClass[o.class]++
				byPlateau[o.plateau]++
			}
			for class, want := range classShares[w] {
				if got := 100 * float64(byClass[class]) / float64(len(deck)); got != want {
					t.Errorf("%s seed %d: class %s is %.1f%% of the deck, want %.0f%%", w, seed, class, got, want)
				}
			}
			if len(byClass) != len(classShares[w]) {
				t.Errorf("%s seed %d: deck has classes %v, want exactly %v", w, seed, byClass, classShares[w])
			}
			// The declared plateaus must be the deck's, and no boundary
			// between two of them may come within 5 points of the ranks
			// p50 and p95 are read at.
			declared, cum := 0, 0
			for _, p := range deckPlateaus[w] {
				if byPlateau[p.name] != p.ops {
					t.Errorf("%s seed %d: plateau %s has %d ops, declared %d", w, seed, p.name, byPlateau[p.name], p.ops)
				}
				declared += p.ops
				cum += p.ops
				share := 100 * float64(cum) / float64(len(deck))
				for _, rank := range []float64{50, 95} {
					if cum < len(deck) && math.Abs(share-rank) < 5 {
						t.Errorf("%s: plateau %s ends at %.0f%%, within 5 points of p%.0f", w, p.name, share, rank)
					}
				}
			}
			if declared != len(deck) {
				t.Errorf("%s: plateaus declare %d ops, the deck has %d", w, declared, len(deck))
			}
		}
	}
}

func TestDeckFollowsSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, orderA, err := buildDeck(w, 7, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, orderB, _ := buildDeck(w, 7, fullSizes)
		c, orderC, _ := buildDeck(w, 8, fullSizes)
		if !reflect.DeepEqual(strip(a), strip(b)) {
			t.Errorf("%s: the same seed gave two different decks", w)
		}
		if reflect.DeepEqual(strip(a), strip(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same thresholds", w)
		}
		passA, passB, passC := orderA.Perm(len(a)), orderB.Perm(len(a)), orderC.Perm(len(a))
		if !reflect.DeepEqual(passA, passB) {
			t.Errorf("%s: the same seed ordered its first pass two ways", w)
		}
		if reflect.DeepEqual(passA, passC) {
			t.Errorf("%s: seeds 7 and 8 ordered their first pass alike", w)
		}
	}
}

// TestSpreadKeepsThePlateausWork pins what lets a seed move thresholds by
// up to 10 % without moving the work of a pass: every copy within 10 % of
// the nominal selectivity, the copies' sum exactly n times it.
func TestSpreadKeepsThePlateausWork(t *testing.T) {
	moved := false
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for n := 1; n <= 7; n++ {
			const f = 0.10
			sum := 0.0
			for _, x := range spread(rng, f, n) {
				if math.Abs(x-f) > 0.10*f+1e-12 {
					t.Errorf("seed %d n %d: selectivity %v is more than 10%% off %v", seed, n, x, f)
				}
				moved = moved || x != f
				sum += x
			}
			if math.Abs(sum-float64(n)*f) > 1e-12 {
				t.Errorf("seed %d n %d: selectivities sum to %v, want %v", seed, n, sum, float64(n)*f)
			}
		}
		for _, x := range spread(rng, 1, 3) {
			if x != 1 {
				t.Errorf("seed %d: a full-table predicate became %v", seed, x)
			}
		}
	}
	if !moved {
		t.Error("no seed moved any selectivity")
	}
}

func TestTimedRoundsFollowTheFlagAlone(t *testing.T) {
	for seconds, want := range map[int]int{20: 6, 10: 3, 40: 12, 1: 1, 0: 1} {
		if got := timedRoundsFor(seconds); got != want {
			t.Errorf("timedRoundsFor(%d) = %d, want %d", seconds, got, want)
		}
	}
}

// TestUndisturbedRounds: rounds the hypervisor stole from are left out of
// the medians, unless that would leave fewer than half.
func TestUndisturbedRounds(t *testing.T) {
	mk := func(stolen ...float64) []round {
		rs := make([]round, len(stolen))
		for i, s := range stolen {
			rs[i].stolen = s
		}
		return rs
	}
	for _, c := range []struct {
		rounds []round
		want   int
	}{
		{mk(0, 0.001, 0, 0.02, 0, 0), 6},
		{mk(0, 0.3, 0, 0.021, 0, 0), 4},
		{mk(0.3, 0.3, 0.3, 0, 0, 0), 3},
		{mk(0.3, 0.3, 0.3, 0.3, 0, 0), 6},
		{mk(0.4), 1},
	} {
		if got := len(undisturbed(c.rounds)); got != c.want {
			t.Errorf("undisturbed(%v) kept %d rounds, want %d", c.rounds, got, c.want)
		}
	}
}

// strip drops the reference pointers, which differ between any two decks.
func strip(deck []op) []op {
	out := append([]op(nil), deck...)
	for i := range out {
		out[i].ref = nil
	}
	return out
}

func TestPercentileAndMedian(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(i + 1)
	}
	if got := percentile(forty, 95); got != 38 {
		t.Errorf("percentile(1..40, 95) = %v, want 38", got)
	}
	if got := percentile([]float64{3}, 95); got != 3 {
		t.Errorf("percentile of one value = %v, want 3", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

// TestDeckQueriesValidate loads one-page tables and checks that every
// query of every deck passes the engine's own admission check.
func TestDeckQueriesValidate(t *testing.T) {
	dir := t.TempDir()
	tables := map[string]*readopt.Table{}
	load := func(key string, s *readopt.Schema, l readopt.Layout) {
		tbl, err := readopt.GenerateTPCH(filepath.Join(dir, key), s, l, 1000, dataSeed, readopt.LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tables[key] = tbl
	}
	for _, l := range []readopt.Layout{readopt.ColumnLayout, readopt.RowLayout, readopt.PAXLayout} {
		load("lineitem."+string(l), readopt.LineitemZ(), l)
		load("orders."+string(l), readopt.OrdersZ(), l)
	}
	load("plain", readopt.Orders(), readopt.ColumnLayout)
	for _, w := range workloadNames {
		deck, _, err := buildDeck(w, 1, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range deck {
			if o.kind == wireInsert {
				continue
			}
			tbl := tables[o.table]
			switch w {
			case "serve_mixed_rw":
				tbl = tables["plain"]
			case "shard_scatter":
				tbl = tables["orders.column"]
			}
			if tbl == nil {
				t.Fatalf("%s: op %s names table %q, which no layout provides", w, o.plateau, o.table)
			}
			if err := tbl.ValidateQuery(o.q); err != nil {
				t.Errorf("%s: op %s: %v", w, o.plateau, err)
			}
		}
	}
}
