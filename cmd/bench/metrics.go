package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric and its unit. The two tables
// below are the program's side of BENCHMARK.json: TestCheckMode fails
// when a name or unit here and there disagree.
type metricDef struct {
	name, unit string
}

// endToEndDefs are the metrics a caller of the engine sees, reported by
// a -trace 0 run under the same names on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"storage_bytes_per_user_byte", "ratio"},
}

// perLayerDefs are the ledger a -trace 1 run reports: layer drives that
// time one internal package on fixed data (the same on every workload),
// then counters and latencies the workload itself produced. A layer the
// workload does not cross reads 0.
var perLayerDefs = []metricDef{
	{"bitio.unpack_ns_per_value", "ns/value"},
	{"compress.decode_ns_per_value.bitpack", "ns/value"},
	{"compress.decode_ns_per_value.dict", "ns/value"},
	{"compress.decode_ns_per_value.for", "ns/value"},
	{"compress.decode_ns_per_value.fordelta", "ns/value"},
	{"compress.match_ns_per_value", "ns/value"},
	{"page.col_decode_ns_per_page", "ns/page"},
	{"page.row_decode_ns_per_page", "ns/page"},
	{"page.pax_decode_ns_per_page", "ns/page"},
	{"scan.col_rows_per_s", "rows/s"},
	{"scan.row_rows_per_s", "rows/s"},
	{"scan.pax_rows_per_s", "rows/s"},
	{"exec.dop2_speedup", "ratio"},
	{"scan.pages_per_op", "pages"},
	{"scan.io_bytes_per_op", "bytes"},
	{"scan.pages_pruned_ratio", "ratio"},
	{"scan.pages_late_skipped_ratio", "ratio"},
	{"scan.bytes_skipped_per_op", "bytes"},
	{"plan.keep_fraction", "ratio"},
	{"plan.compile_us_per_query", "us"},
	{"aio.read_mb_per_s", "MB/s"},
	{"aio.prefetch_hit_ratio", "ratio"},
	{"aio.wait_ms_per_op", "ms"},
	{"exec.hashagg_ns_per_tuple", "ns/tuple"},
	{"exec.sortagg_ns_per_tuple", "ns/tuple"},
	{"exec.topn_ns_per_tuple", "ns/tuple"},
	{"exec.filter_ns_per_tuple", "ns/tuple"},
	{"share.batch8_cost_ratio", "ratio"},
	{"server.mean_batch_size", "count"},
	{"server.queue_wait_us_per_op", "us"},
	{"server.exec_us_per_op", "us"},
	{"server.wire_overhead_ms_per_op", "ms"},
	{"server.rejected_share", "ratio"},
	{"server.timed_out_share", "ratio"},
	{"server.point_latency_ms_p50", "ms"},
	{"server.agg_latency_ms_p50", "ms"},
	{"server.insert_latency_ms_p50", "ms"},
	{"server.ingest_read_latency_ms_p50", "ms"},
	{"wos.insert_us_per_row", "us/row"},
	{"wos.flush_ms", "ms"},
	{"wos.compact_ms", "ms"},
	{"wos.bytes_written_per_user_byte", "ratio"},
	{"wos.spills_per_run", "count"},
	{"wos.compactions_per_run", "count"},
	{"wos.delta_read_penalty", "ratio"},
	{"store.load_rows_per_s", "rows/s"},
	{"store.open_ms", "ms"},
	{"store.bytes_per_row.row", "bytes/row"},
	{"store.bytes_per_row.column", "bytes/row"},
	{"store.bytes_per_row.pax", "bytes/row"},
	{"shard.coord_over_single_ratio", "ratio"},
	{"shard.fanout_requests_per_op", "count"},
	{"shard.retries_per_op", "count"},
	{"shard.failed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"layers.sum_over_e2e", "ratio"},
	{"host.calib_ms", "ms"},
	{"host.stolen_cpu_share", "ratio"},
	{"host.peak_rss_mb", "MB"},
	{"host.cpus", "count"},
	{"host.gomaxprocs", "count"},
}

// metric is one measured value on the wire.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects values by name and refuses names outside defs, a
// second value for one name, and — at the end — a name left unset, so a
// run can only ever print exactly the declared ledger.
type metricSet struct {
	defs   []metricDef
	units  map[string]string
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, units: map[string]string{}, values: map[string]metric{}}
	for _, d := range defs {
		m.units[d.name] = d.unit
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	if _, dup := m.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

func (m *metricSet) get(name string) float64 { return m.values[name].Value }

func (m *metricSet) complete() error {
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			return fmt.Errorf("metric %s was never measured", d.name)
		}
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the program reads back: the
// bounds -repeat enforces and the names the smoke test cross-checks.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}
