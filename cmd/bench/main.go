// Command bench is the repository's one benchmark: four closed-loop
// workloads over the engine's public entry points, seven end-to-end
// metrics reported as medians over fixed-work rounds, and a per-layer
// ledger measured from outside the engine. BENCHMARK.json at the root of
// the repository names the workloads and metrics; README.md in this
// directory says what each one is for.
//
//	bench -workload scan_column -seed 1 -seconds 20 -trace 0   end-to-end metrics
//	bench -workload scan_column -seed 1 -seconds 20 -trace 1   per-layer ledger, spans.json
//	bench -workload serve_mixed_rw -check                      smoke: small tables, every op fully compared
//	bench -workload shard_scatter -repeat 10                   spread of ten fresh runs against the bounds
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. Everything above it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	check    bool
	dir      string
	out      string
}

func main() {
	var cfg config
	var trace, repeat int
	var spec string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: scan_column, scan_row, serve_mixed_rw or shard_scatter")
	flag.Int64Var(&cfg.seed, "seed", 1, "perturbs predicate thresholds by up to ±10% and shuffles the deck; never changes the data or the mix")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "sets the number of fixed-work timed rounds: 6 for 20, in proportion otherwise, never fewer than 1")
	flag.IntVar(&trace, "trace", 0, "0: report the end-to-end metrics; 1: also run the traced pass and the layer drives and report the per-layer metrics")
	flag.BoolVar(&cfg.check, "check", false, "smoke mode: small tables, one round, every op fully compared with the Scalar reference")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory the run's data lives (and dies) under; spans.json is left in it")
	flag.StringVar(&cfg.out, "out", "", "also write the full report as JSON to this file")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times in fresh processes (seeds seed..seed+K-1) and hold each end-to-end metric's spread against its bound")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "the benchmark's declaration, read by -repeat for the bounds")
	flag.Parse()
	if flag.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	var err error
	if repeat > 0 {
		err = repeatRuns(cfg, repeat, spec, os.Stdout)
	} else {
		err = runOnce(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is everything one run measured; -out writes it whole.
type report struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Check    bool     `json:"check"`
	Host     hostInfo `json:"host"`
	// SetupS holds every timed set-up; setup_s is their median.
	SetupS []float64      `json:"setup_s"`
	Rounds []roundSummary `json:"rounds"`
	// RoundsCounted is how many of Rounds the medians are taken over:
	// those the hypervisor stole at most maxStolenShare from, or all of
	// them when that leaves fewer than half.
	RoundsCounted int `json:"rounds_counted"`
	// TailPercentile is 95, or 90 when the run timed fewer than 240 ops
	// and latency_ms_p95 therefore carries the p90.
	TailPercentile float64 `json:"tail_percentile"`
	// PlateauMS is the p10, p50 and p90 latency of each cost plateau of
	// the deck over all timed ops: the check that the deck's declared
	// order is still true and its plateaus still flat.
	PlateauMS map[string][3]float64 `json:"plateau_p10_p50_p90_ms"`
	// SpanSelfMS is the traced pass's self time by span name, largest
	// first.
	SpanSelfMS []spanSelf `json:"span_self_ms,omitempty"`
	Result     result     `json:"result"`
}

type roundSummary struct {
	Ops         int64   `json:"ops"`
	Failed      int64   `json:"failed"`
	ElapsedS    float64 `json:"elapsed_s"`
	OpsPerS     float64 `json:"ops_per_s"`
	P50MS       float64 `json:"latency_ms_p50"`
	TailMS      float64 `json:"latency_ms_tail"`
	CPUMSOp     float64 `json:"cpu_ms_per_op"`
	Stolen      float64 `json:"stolen_cpu_share"`
	TailSamples int     `json:"samples"`
}

// runOnce is one benchmark run: set-up (three times over when it is the
// set-up being measured), the timed rounds with tracing off, then for
// -trace 1 one traced pass and the layer drives.
func runOnce(cfg config, stdout io.Writer) (err error) {
	sz, rounds, roundMode := fullSizes, timedRoundsFor(cfg.seconds), timed
	if cfg.check {
		sz, rounds, roundMode = checkSizes, 1, verify
	}
	rep := report{Workload: cfg.workload, Seed: cfg.seed, Check: cfg.check, Host: newHostInfo()}

	setups := 3
	if cfg.trace || cfg.check {
		setups = 1
	}
	e, dir, setupS, err := setUpMedian(cfg, sz, setups)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
	}()
	rep.SetupS = setupS

	calibBefore := calibrate()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	timedRounds, err := e.timedRounds(rounds, roundMode)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&mem1)
	calibAfter := calibrate()

	res := result{Metrics: map[string]metric{}}
	var firstErr error
	for _, r := range timedRounds {
		res.Attempted += r.ops
		res.Failed += r.failed
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	med := rep.summarize(timedRounds)
	rep.Host.calibrated(calibBefore, calibAfter)
	var ms *metricSet
	if !cfg.trace {
		ms = newMetricSet(endToEndDefs)
		ms.set("setup_s", median(rep.SetupS))
		ms.set("ops_per_s", med.opsPerS)
		ms.set("latency_ms_p50", med.p50MS)
		ms.set("latency_ms_p95", med.tailMS)
		ms.set("cpu_ms_per_op", med.cpuMSPerOp)
		ms.set("alloc_kb_per_op", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/float64(res.Attempted))
		ratio, err := e.storageRatio()
		if err != nil {
			return err
		}
		ms.set("storage_bytes_per_user_byte", ratio)
	} else {
		tr := newTracer()
		tracedRound, err := e.runRound(e.passesPerRound(), traced, tr)
		if err != nil {
			return err
		}
		res.Attempted += tracedRound.ops
		res.Failed += tracedRound.failed
		if firstErr == nil {
			firstErr = tracedRound.firstErr
		}
		ms = newMetricSet(perLayerDefs)
		if err := e.ledger(ms, undisturbed(timedRounds), tracedRound, med.opsPerS); err != nil {
			return err
		}
		if err := layerDrives(dir, sz, ms); err != nil {
			return err
		}
		ms.set("host.calib_ms", (rep.Host.CalibBeforeMS+rep.Host.CalibAfterMS)/2)
		ms.set("host.stolen_cpu_share", rep.Host.StolenCPUShare)
		ms.set("host.peak_rss_mb", peakRSSMB())
		ms.set("host.cpus", float64(rep.Host.CPUs))
		ms.set("host.gomaxprocs", float64(rep.Host.GOMAXPROCS))
		rep.SpanSelfMS = tr.selfTimes()
		if err := tr.write(filepath.Join(cfg.dir, "spans.json"), cfg.workload); err != nil {
			return err
		}
	}
	if err := e.checkIngestTotal(); err != nil {
		res.Failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	if err := ms.complete(); err != nil {
		return err
	}
	res.Metrics = ms.values
	res.Correct = res.Failed == 0
	rep.Result = res
	rep.print(stdout, cfg, firstErr)
	if cfg.out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setUpMedian sets the workload up n times, each in a fresh directory
// under cfg.dir, and returns every set-up's duration. Set-up is short
// next to the rounds and therefore noisy, so an end-to-end run does it
// three times and reports the median; the last one stays up for the
// rounds, and closing it and removing its directory is the caller's job.
func setUpMedian(cfg config, sz sizes, n int) (e *env, dir string, seconds []float64, err error) {
	for i := 0; i < n; i++ {
		if e != nil {
			err = e.close()
			os.RemoveAll(dir)
			if err != nil {
				return nil, "", nil, err
			}
		}
		if dir, err = freshDir(cfg.dir); err != nil {
			return nil, "", nil, err
		}
		start := time.Now()
		if e, err = setUp(cfg.workload, cfg.seed, sz, dir); err != nil {
			os.RemoveAll(dir)
			return nil, "", nil, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return e, dir, seconds, nil
}

// medians are a run's rate, latency and cost figures: each the median
// over rounds of the round's own figure, so one noisy second moves
// nothing.
type medians struct {
	opsPerS, p50MS, tailMS, cpuMSPerOp float64
}

// maxStolenShare is the stolen share of a round's CPU capacity above
// which the round measured the host's other guests, not the program.
// Left alone, this host steals under half a percent; when a neighbour
// wakes up it takes ten to fifty.
const maxStolenShare = 0.02

// undisturbed returns the rounds the hypervisor left alone, or every
// round when it left fewer than half alone: a median over what is left
// would then rest on one or two rounds.
func undisturbed(rounds []round) []round {
	var calm []round
	for _, r := range rounds {
		if r.stolen <= maxStolenShare {
			calm = append(calm, r)
		}
	}
	if 2*len(calm) < len(rounds) {
		return rounds
	}
	return calm
}

// summarize folds the timed rounds into the report and returns the
// medians over the undisturbed ones.
func (rep *report) summarize(rounds []round) medians {
	var timedOps int64
	for _, r := range rounds {
		timedOps += r.ops
	}
	// p95 needs ten samples beyond it to mean anything: 240 ops give twelve.
	rep.TailPercentile = 95
	if timedOps < 240 {
		rep.TailPercentile = 90
	}
	counted := len(undisturbed(rounds))
	rep.RoundsCounted = counted
	var rate, p50, tail, cpu []float64
	byPlateau := map[string][]float64{}
	for _, r := range rounds {
		s := rep.summarizeRound(r)
		rep.Rounds = append(rep.Rounds, s)
		rep.Host.StolenCPUShare += r.stolen / float64(len(rounds))
		if counted < len(rounds) && r.stolen > maxStolenShare {
			continue
		}
		rate, p50, tail, cpu = append(rate, s.OpsPerS), append(p50, s.P50MS), append(tail, s.TailMS), append(cpu, s.CPUMSOp)
		for _, smp := range r.samples {
			byPlateau[smp.op.plateau] = append(byPlateau[smp.op.plateau], float64(smp.latency)/1e6)
		}
	}
	rep.PlateauMS = map[string][3]float64{}
	for name, lat := range byPlateau {
		sort.Float64s(lat)
		rep.PlateauMS[name] = [3]float64{percentile(lat, 10), percentile(lat, 50), percentile(lat, 90)}
	}
	return medians{median(rate), median(p50), median(tail), median(cpu)}
}

func (rep *report) summarizeRound(r round) roundSummary {
	s := roundSummary{Ops: r.ops, Failed: r.failed, ElapsedS: r.elapsed.Seconds(), Stolen: r.stolen, TailSamples: len(r.samples)}
	s.OpsPerS = float64(r.ops-r.failed) / r.elapsed.Seconds()
	s.CPUMSOp = float64(r.cpu) / 1e6 / float64(r.ops)
	if lat := r.latenciesMS(); len(lat) > 0 {
		s.P50MS, s.TailMS = percentile(lat, 50), percentile(lat, rep.TailPercentile)
	}
	return s
}

// print writes the human-readable report.
func (rep *report) print(w io.Writer, cfg config, firstErr error) {
	h := rep.Host
	fmt.Fprintf(w, "workload %s  seed %d  commit %s  %s  cpus %d  gomaxprocs %d\n", rep.Workload, rep.Seed, h.Commit, h.GoVersion, h.CPUs, h.GOMAXPROCS)
	fmt.Fprintf(w, "host calibration %.2f ms before, %.2f ms after the rounds, %.1f%% of their CPU stolen", h.CalibBeforeMS, h.CalibAfterMS, 100*h.StolenCPUShare)
	if h.HostDrift {
		fmt.Fprint(w, "  host_drift: the host moved during this run")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "set-up %.3f s (each: %.3f)\n", median(rep.SetupS), rep.SetupS)
	fmt.Fprintf(w, "%-6s %6s %7s %9s %10s %10s %10s %9s %8s\n", "round", "ops", "failed", "elapsed_s", "ops_per_s", "p50_ms", fmt.Sprintf("p%.0f_ms", rep.TailPercentile), "cpu_ms/op", "stolen")
	for i, r := range rep.Rounds {
		fmt.Fprintf(w, "%-6d %6d %7d %9.3f %10.2f %10.3f %10.3f %9.3f %7.1f%%\n", i+1, r.Ops, r.Failed, r.ElapsedS, r.OpsPerS, r.P50MS, r.TailMS, r.CPUMSOp, 100*r.Stolen)
	}
	if len(rep.Rounds) > 0 {
		fmt.Fprintf(w, "rates and percentiles are medians over the %d of %d rounds the hypervisor left alone (or all, were it fewer than half), %d samples each", rep.RoundsCounted, len(rep.Rounds), rep.Rounds[0].TailSamples)
		if rep.TailPercentile != 95 {
			fmt.Fprintf(w, "; fewer than 240 timed ops, so latency_ms_p95 carries the p90")
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "latency by deck plateau, cheapest first as declared (ms):")
	fmt.Fprintf(w, "  %-16s %8s %10s %10s %10s\n", "plateau", "ops/pass", "p10", "p50", "p90")
	for _, p := range deckPlateaus[rep.Workload] {
		ms := rep.PlateauMS[p.name]
		fmt.Fprintf(w, "  %-16s %8d %10.3f %10.3f %10.3f\n", p.name, p.ops, ms[0], ms[1], ms[2])
	}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
		fmt.Fprintln(w, "self time by span of the traced pass (ms):")
		for _, ss := range rep.SpanSelfMS {
			fmt.Fprintf(w, "  %-24s %10.3f\n", ss.Name, ss.SelfMS)
		}
	}
	for _, d := range defs {
		m := rep.Result.Metrics[d.name]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", d.name, m.Value, m.Unit)
	}
	if firstErr != nil {
		fmt.Fprintf(w, "first failed op: %v\n", firstErr)
	}
}
