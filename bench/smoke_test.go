package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at 1% size, end to end and traced, and
// checks that each reports all its metrics with correct outputs. It builds
// the product and takes about a minute, so it runs only with
// VECTRACE_BENCH_SMOKE=1.
func TestSmoke(t *testing.T) {
	if os.Getenv("VECTRACE_BENCH_SMOKE") == "" {
		t.Skip("set VECTRACE_BENCH_SMOKE=1 to run every workload at 1% size")
	}
	out := filepath.Join(t.TempDir(), "smoke.json")
	if err := runCmd([]string{"-scale", "0.01", "-reps", "1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the results, want %d", len(res.Workloads), len(workloadNames))
	}
	for _, wr := range res.Workloads {
		if !wr.Correct || wr.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d problems=%v", wr.Name, wr.Correct, wr.Failed, wr.Problems)
		}
		for _, name := range workloadE2E[wr.Name] {
			if wr.Metrics[name] == nil {
				t.Errorf("%s: no %s", wr.Name, name)
			}
		}
		for _, name := range benchmarkLayers {
			if s := wr.Layers[name]; s == nil || s.Median == 0 {
				t.Errorf("%s: layer metric %s missing or zero", wr.Name, name)
			}
		}
	}
}
