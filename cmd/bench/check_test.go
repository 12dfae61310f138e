package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

const specPath = "../../BENCHMARK.json"

// TestSpecMatchesProgram holds BENCHMARK.json against the program's own
// tables: the same workloads, the same metric names in the same order,
// the same units.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the program sizes its %d rounds for %d", spec.RunSeconds, roundsPerRun, runSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndDefs}, {"per_layer", spec.PerLayer, perLayerDefs}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s in %s, the program %s in %s", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestCheckMode is the smoke run: every workload in -check mode (small
// tables, one round, every op compared value for value with the Scalar
// reference), once per -trace setting. The result line must carry exactly
// the metrics BENCHMARK.json lists for that setting, each once, with its
// unit, and no failed op.
func TestCheckMode(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				cfg := config{workload: w, seed: 3, check: true, trace: trace, dir: dir, out: filepath.Join(dir, "report.json")}
				if err := runOnce(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				last := lines[len(lines)-1]
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(last, &keys); err != nil {
					t.Fatalf("last line is not JSON: %v\n%s", err, last)
				}
				if len(keys) != 4 {
					t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", keys)
				}
				var res result
				if err := json.Unmarshal(last, &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.Bytes())
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result carries %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s is missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %s, want %s", m.Name, got.Unit, m.Unit)
					}
				}
				if _, err := os.Stat(cfg.out); err != nil {
					t.Errorf("-out report: %v", err)
				}
				if _, err := os.Stat(filepath.Join(dir, "spans.json")); trace != (err == nil) {
					t.Errorf("spans.json with trace=%v: %v", trace, err)
				}
				left, _ := filepath.Glob(filepath.Join(dir, "readopt-bench-*"))
				if len(left) > 0 {
					t.Errorf("run left its data behind: %v", left)
				}
			})
		}
	}
}
