package main

import (
	"context"
	"sort"
	"time"

	"github.com/readoptdb/readopt"
)

// ledger records the per-layer metrics that come from the workload
// itself rather than from a drive: the engine's own page and byte
// counters over the timed rounds, the I/O layer's prefetch behaviour over
// the traced pass, and — where the workload has them — what the server,
// the write path and the coordinator counted. A layer the workload does
// not cross reads 0.
func (e *env) ledger(ms *metricSet, rounds []round, tracedRound round, timedOpsPerS float64) error {
	var timedSamples []sample
	for _, r := range rounds {
		timedSamples = append(timedSamples, r.samples...)
	}
	ledgerScan(ms, timedSamples)

	var hits, stalls, stallUS, tracedQueries float64
	for _, s := range tracedRound.samples {
		if s.op.kind == wireInsert {
			continue
		}
		tracedQueries++
		hits += float64(s.io.PrefetchHits)
		stalls += float64(s.io.PrefetchStalls)
		stallUS += float64(s.io.StallMicros)
	}
	ms.set("aio.prefetch_hit_ratio", ratio(hits, hits+stalls))
	ms.set("aio.wait_ms_per_op", ratio(stallUS/1e3, tracedQueries))
	ms.set("trace.overhead_ratio", ratio(float64(tracedRound.ops-tracedRound.failed)/tracedRound.elapsed.Seconds(), timedOpsPerS))

	e.ledgerServe(ms, timedSamples)
	return e.ledgerShard(ms)
}

// ledgerScan sums what the engine counted for every timed query. Every
// page of a scanned section is touched, pruned by the keep set or
// late-skipped (the scan layer's conservation identity), so the three
// add up to the pages the plan had in front of it.
func ledgerScan(ms *metricSet, samples []sample) {
	var queries, pages, pruned, late, ioBytes, skipped float64
	for _, s := range samples {
		if s.op.kind == wireInsert {
			continue
		}
		queries++
		pages += float64(s.stats.Pages)
		pruned += float64(s.stats.PagesPruned)
		late += float64(s.stats.PagesLateSkipped)
		ioBytes += float64(s.stats.IOBytes)
		skipped += float64(s.stats.BytesSkipped)
	}
	section := pages + pruned + late
	ms.set("scan.pages_per_op", ratio(pages, queries))
	ms.set("scan.io_bytes_per_op", ratio(ioBytes, queries))
	ms.set("scan.pages_pruned_ratio", ratio(pruned, section))
	ms.set("scan.pages_late_skipped_ratio", ratio(late, section))
	ms.set("scan.bytes_skipped_per_op", ratio(skipped, queries))
	ms.set("plan.keep_fraction", 1-ratio(pruned, section))
}

// ledgerServe records the serving tier and the write path behind it:
// what the one server of serve_mixed_rw reported per query, its latency
// by kind of op, and the ingest table's spills and compactions since
// the clients started. Only that workload has them (shard_scatter's
// servers sit behind the coordinator); elsewhere they read 0.
func (e *env) ledgerServe(ms *metricSet, samples []sample) {
	var queries, queueUS, execUS, batch, overheadMS float64
	var rejected, timedOut, arrived, spills, compactions float64
	byPlateau := map[string][]float64{}
	if e.ingest != nil {
		for _, s := range samples {
			byPlateau[s.op.plateau] = append(byPlateau[s.op.plateau], float64(s.latency)/1e6)
			if s.op.kind == wireInsert {
				continue
			}
			queries++
			queueUS += float64(s.queueUS)
			execUS += float64(s.execUS)
			batch += float64(s.batch)
			overheadMS += float64(s.latency)/1e6 - float64(s.queueUS+s.execUS)/1e3
		}
		st := e.servers[0].Stats()
		rejected = float64(st.Rejected + st.InsertRejected)
		timedOut = float64(st.TimedOut)
		arrived = float64(st.Admitted+st.Inserts+st.InsertFailed) + rejected
		ist := e.ingest.IngestStats()
		spills = float64(ist.Spills - e.ingestBase.Spills)
		compactions = float64(ist.Compactions - e.ingestBase.Compactions)
	}
	ms.set("server.mean_batch_size", ratio(batch, queries))
	ms.set("server.queue_wait_us_per_op", ratio(queueUS, queries))
	ms.set("server.exec_us_per_op", ratio(execUS, queries))
	ms.set("server.wire_overhead_ms_per_op", ratio(overheadMS, queries))
	ms.set("server.rejected_share", ratio(rejected, arrived))
	ms.set("server.timed_out_share", ratio(timedOut, arrived))
	ms.set("server.point_latency_ms_p50", median(byPlateau["read.point"]))
	ms.set("server.agg_latency_ms_p50", median(byPlateau["agg"]))
	ms.set("server.insert_latency_ms_p50", median(byPlateau["insert"]))
	ms.set("server.ingest_read_latency_ms_p50", median(byPlateau["ingest_read"]))
	ms.set("wos.spills_per_run", spills)
	ms.set("wos.compactions_per_run", compactions)
}

// ledgerShard records the coordinator: fan-out, retries and failures per
// query it took, and what a query costs through it against the same
// query on one server holding the whole table.
func (e *env) ledgerShard(ms *metricSet) error {
	var fanout, retries, failed, overSingle float64
	if e.coord != nil {
		st := e.coord.Stats()
		var requests int64
		for _, p := range st.Partitions {
			for _, ep := range p.Endpoints {
				requests += ep.Requests
			}
		}
		fanout = ratio(float64(requests), float64(st.Queries))
		retries = ratio(float64(st.Retries), float64(st.Queries))
		failed = ratio(float64(st.Failed), float64(st.Queries))
		viaCoord, err := e.soloP50(e.plain[0])
		if err != nil {
			return err
		}
		single, err := e.soloP50(readopt.NewClient(e.singleURL, nil))
		if err != nil {
			return err
		}
		overSingle = ratio(viaCoord, single)
	}
	ms.set("shard.coord_over_single_ratio", overSingle)
	ms.set("shard.fanout_requests_per_op", fanout)
	ms.set("shard.retries_per_op", retries)
	ms.set("shard.failed_share", failed)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// soloP50 sends three deck passes through client one op at a time and
// returns the median latency in milliseconds: the same ops with no
// second client in the way, so two endpoints can be compared.
func (e *env) soloP50(client *readopt.Client) (float64, error) {
	var lat []float64
	for pass := 0; pass < 3; pass++ {
		for i := range e.deck {
			o := &e.deck[i]
			start := time.Now()
			resp, err := client.Do(context.Background(), readopt.QueryRequest{Table: o.table, Query: o.q})
			if err != nil {
				return 0, err
			}
			lat = append(lat, float64(time.Since(start))/1e6)
			if err := checkAnswer(o, timed, &digest{rows: int64(len(resp.Rows))}); err != nil {
				return 0, err
			}
		}
	}
	sort.Float64s(lat)
	return percentile(lat, 50), nil
}
