package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/experiments.txt from the reproduction")

// goldenPath is the checked-in output of `go run ./cmd/experiments`.
var goldenPath = filepath.Join("..", "..", "results", "experiments.txt")

// TestReproductionGolden pins the paper reproduction: every figure and
// table, rendered at the default parameters, must match the checked-in
// results/experiments.txt byte for byte. The experiment numbers come from
// cpumodel.Counters, so a scan change that moves the counted work moves a
// figure and fails here. After an intended change, rewrite the golden
// with `go test ./internal/harness -run ReproductionGolden -update`.
func TestReproductionGolden(t *testing.T) {
	h := testHarness(t)
	if h.Params().MeasureTuples != DefaultParams().MeasureTuples {
		t.Fatalf("shared harness measures %d tuples; the reproduction uses %d",
			h.Params().MeasureTuples, DefaultParams().MeasureTuples)
	}
	var got bytes.Buffer
	if err := h.WriteAll(&got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if diffs < 10 {
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
			diffs++
		}
	}
	t.Errorf("reproduction differs from %s on %d lines (rerun with -update after an intended change)", goldenPath, diffs)
}
