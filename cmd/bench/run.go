package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/readoptdb/readopt"
)

// mode says how much an op checks and records.
type mode int

const (
	// timed drains the result and compares the row count only, so the
	// measured time is the engine's.
	timed mode = iota
	// verify compares every value against the Scalar reference.
	verify
	// traced is timed with the engine's Trace option on and the
	// benchmark's own spans recorded.
	traced
)

// sample is one finished op.
type sample struct {
	op      *op
	latency time.Duration
	// Server-reported split of a wire query's latency.
	queueUS, execUS int64
	batch           int
	stats           readopt.ScanStats
	io              readopt.TraceIO
}

// round is one closed-loop run of whole deck passes.
type round struct {
	ops, failed int64
	firstErr    error
	elapsed     time.Duration
	cpu         time.Duration
	// stolen is the share of the round's CPU capacity (elapsed × CPUs)
	// that the hypervisor gave to other guests.
	stolen  float64
	samples []sample
}

// latenciesMS returns the round's latencies in milliseconds, ascending.
func (r *round) latenciesMS() []float64 {
	out := make([]float64, len(r.samples))
	for i := range r.samples {
		out[i] = float64(r.samples[i].latency) / 1e6
	}
	sort.Float64s(out)
	return out
}

// runRound drives passes whole deck passes through the workload's
// clients, each pass in a fresh seed-determined order. The loop is
// closed: each client sends its next op only once the previous one has
// answered, as callers of a scan engine do. Clients take ops off one
// shared sequence, so a round is always the same multiset of ops
// whatever their interleaving.
func (e *env) runRound(passes int, m mode, tr *tracer) (round, error) {
	sequence := make([]int, 0, passes*len(e.deck))
	for p := 0; p < passes; p++ {
		sequence = append(sequence, e.order.Perm(len(e.deck))...)
	}
	// Each client keeps its own samples and failures; they are pooled
	// once the round is over.
	type tally struct {
		samples  []sample
		failed   int64
		firstErr error
	}
	tallies := make([]tally, e.clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, err := cpuTime()
	if err != nil {
		return round{}, err
	}
	stolen0 := stolenSeconds()
	start := time.Now()
	for c := range tallies {
		wg.Add(1)
		go func(c int, t *tally) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sequence) {
					return
				}
				o := &e.deck[sequence[i]]
				s := sample{op: o}
				t0 := time.Now()
				err := e.do(c, o, m, tr, &s)
				s.latency = time.Since(t0)
				if err != nil {
					// A failed op has no latency worth keeping.
					t.failed++
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("%s: %w", o.plateau, err)
					}
					continue
				}
				t.samples = append(t.samples, s)
			}
		}(c, &tallies[c])
	}
	wg.Wait()
	r := round{ops: int64(len(sequence)), elapsed: time.Since(start)}
	r.stolen = (stolenSeconds() - stolen0) / (r.elapsed.Seconds() * float64(runtime.NumCPU()))
	cpu1, err := cpuTime()
	if err != nil {
		return round{}, err
	}
	r.cpu = cpu1 - cpu0
	for _, t := range tallies {
		r.samples = append(r.samples, t.samples...)
		r.failed += t.failed
		if r.firstErr == nil {
			r.firstErr = t.firstErr
		}
	}
	return r, nil
}

// do executes one op and checks its answer. A wrong, refused or errored
// op returns an error and counts as failed.
func (e *env) do(c int, o *op, m mode, tr *tracer, s *sample) error {
	switch o.kind {
	case libQuery:
		return e.doLibrary(o, m, tr, s)
	case wireInsert:
		return e.doInsert(c, o, m, tr)
	default:
		return e.doWire(c, o, m, tr, s)
	}
}

func (e *env) doLibrary(o *op, m mode, tr *tracer, s *sample) error {
	sp := tr.begin(o)
	rows, err := e.tables[o.table].QueryExec(o.q, readopt.ExecOptions{Trace: m == traced})
	sp.mark("plan_open")
	if err != nil {
		return err
	}
	d := newDigest()
	if m == verify {
		err = digestRows(rows, d)
	} else {
		for rows.Next() {
			d.rows++
		}
		err = rows.Err()
	}
	sp.mark("drain")
	cerr := rows.Close()
	sp.mark("close")
	if err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	s.stats = rows.Stats()
	qt := rows.Trace()
	if qt != nil {
		s.io = qt.IO
	}
	sp.libraryDone(qt)
	return checkAnswer(o, m, d)
}

func checkAnswer(o *op, m mode, d *digest) error {
	if m == verify {
		return d.matches(o.ref)
	}
	if d.rows != o.ref.rows {
		return fmt.Errorf("wrong answer: %d rows, reference has %d", d.rows, o.ref.rows)
	}
	return nil
}

func (e *env) doWire(c int, o *op, m mode, tr *tracer, s *sample) error {
	client := e.plain[c]
	sp := tr.begin(o)
	ctx := context.Background()
	if m == traced {
		client = e.traced[c]
		ctx = sp.wireContext(ctx)
	}
	ackedBefore := e.ackedRows.Load()
	resp, err := client.Do(ctx, readopt.QueryRequest{Table: o.table, Query: o.q, Trace: m == traced})
	if err != nil {
		return err
	}
	sentAfter := e.sentRows.Load()
	sp.wireDone(resp)
	s.queueUS, s.execUS, s.batch, s.stats = resp.QueueWaitMicros, resp.ExecMicros, resp.BatchSize, resp.Stats
	if resp.Trace != nil {
		s.io = resp.Trace.IO
	}
	if o.kind == wireIngestRead {
		// The count covers every row inserted since the preload. Inserts
		// race this read, so it is bracketed: nothing acknowledged before
		// the read was sent may be missing, nothing not yet sent when the
		// answer arrived may be present.
		// An aggregate over no rows answers no rows, not a zero.
		var n int64
		if len(resp.Rows) > 0 {
			f, ok := resp.Rows[0][0].(float64)
			if !ok {
				return fmt.Errorf("tail count answered %v", resp.Rows[0])
			}
			n = int64(f)
		}
		if n < ackedBefore || n > sentAfter {
			return fmt.Errorf("tail count %d outside [%d acknowledged before, %d sent after]", n, ackedBefore, sentAfter)
		}
		return nil
	}
	d := newDigest()
	if m == verify {
		for _, row := range resp.Rows {
			if err := d.row(row); err != nil {
				return err
			}
		}
	} else {
		d.rows = int64(len(resp.Rows))
	}
	return checkAnswer(o, m, d)
}

func (e *env) doInsert(c int, o *op, m mode, tr *tracer) error {
	rows := e.nextInsertRows(e.sz.insertBatch)
	client := e.plain[c]
	sp := tr.begin(o)
	ctx := context.Background()
	if m == traced {
		client = e.traced[c]
		ctx = sp.wireContext(ctx)
	}
	e.sentRows.Add(int64(len(rows)))
	resp, err := client.Insert(ctx, o.table, rows)
	if err != nil {
		return err
	}
	sp.wireDone(nil)
	if resp.Inserted != int64(len(rows)) {
		return fmt.Errorf("insert acknowledged %d of %d rows", resp.Inserted, len(rows))
	}
	e.ackedRows.Add(resp.Inserted)
	return nil
}

// checkIngestTotal is the write path's final exactness check: the table
// holds the preload plus every acknowledged row, no more, no less.
func (e *env) checkIngestTotal() error {
	if e.ingest == nil {
		return nil
	}
	want := e.sz.preload + e.ackedRows.Load()
	if got := e.ingest.Rows(); got != want {
		return fmt.Errorf("ingest table holds %d rows, want %d preloaded + %d acknowledged", got, e.sz.preload, e.ackedRows.Load())
	}
	return nil
}

// timedRounds runs n fixed-work rounds, collecting garbage before each so
// that no round inherits the heap of the one before. Every reported
// figure is a median over rounds, so a noisy few seconds move nothing.
func (e *env) timedRounds(n int, m mode) ([]round, error) {
	rounds := make([]round, 0, n)
	for len(rounds) < n {
		runtime.GC()
		r, err := e.runRound(e.passesPerRound(), m, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// passesPerRound is the fixed work of one round, in whole deck passes.
func (e *env) passesPerRound() int { return e.sz.passes[e.workload] }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
