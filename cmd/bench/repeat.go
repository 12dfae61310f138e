package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// repeatRuns runs the workload k times, each in a fresh process with the
// next seed, and prints every end-to-end metric's min, median, max,
// range over median and interquartile range over median. It fails when a
// metric's interquartile spread exceeds the bound BENCHMARK.json gives
// it: the driver's own acceptance rule, except that the driver lets
// setup_s off and this does not.
func repeatRuns(cfg config, k int, specPath string, stdout io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	reportPath := filepath.Join(cfg.dir, "repeat-report.json")
	defer os.Remove(reportPath)
	for i := 0; i < k; i++ {
		seed := cfg.seed + int64(i)
		cmd := exec.Command(self, "-workload", cfg.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0", "-dir", cfg.dir, "-out", reportPath)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		var rep report
		blob, err := os.ReadFile(reportPath)
		if err == nil {
			err = json.Unmarshal(blob, &rep)
		}
		if err != nil {
			return fmt.Errorf("run %d (seed %d): report: %w", i+1, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d (seed %d): last line is not a result: %w", i+1, seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): %d of %d ops failed", i+1, seed, res.Failed, res.Attempted)
		}
		fmt.Fprintf(stdout, "run %2d seed %d attempted %d failed %d calib %.1f/%.1f ms stolen %.1f%% rounds %d/%d", i+1, seed, res.Attempted, res.Failed,
			rep.Host.CalibBeforeMS, rep.Host.CalibAfterMS, 100*rep.Host.StolenCPUShare, rep.RoundsCounted, len(rep.Rounds))
		for _, d := range endToEndDefs {
			values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
			fmt.Fprintf(stdout, "  %s %.6g", d.name, res.Metrics[d.name].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\n%s, %d runs of %d s, seeds %d..%d\n", cfg.workload, k, cfg.seconds, cfg.seed, cfg.seed+int64(k)-1)
	fmt.Fprintf(stdout, "%-28s %-6s %12s %12s %12s %10s %10s %7s\n", "metric", "unit", "min", "median", "max", "range/med", "iqr/med", "bound")
	var over []string
	for _, m := range spec.EndToEnd {
		xs := append([]float64(nil), values[m.Name]...)
		sort.Float64s(xs)
		med := median(xs)
		spread := 0.0
		if len(xs) >= 2 {
			q1, q3 := quartiles(xs)
			spread = (q3 - q1) / med
		}
		verdict := ""
		if spread > m.Bound {
			verdict = "  OVER"
			over = append(over, m.Name)
		}
		fmt.Fprintf(stdout, "%-28s %-6s %12.6g %12.6g %12.6g %10.4f %10.4f %7.2f%s\n",
			m.Name, m.Unit, xs[0], med, xs[len(xs)-1], (xs[len(xs)-1]-xs[0])/med, spread, m.Bound, verdict)
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over bound on %v", over)
	}
	return nil
}

// quartiles returns the first and third quartile of sorted xs (at least
// two values) exactly as Python's statistics.quantiles(xs, n=4) does, so
// a spread computed here is the one the driver computes.
func quartiles(sorted []float64) (q1, q3 float64) {
	const n = 4
	ld := len(sorted)
	at := func(i int) float64 {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
	}
	return at(1), at(3)
}
