package main

import (
	"io"
	"testing"
)

func series(base float64, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + spread*(float64(i)/float64(n-1)-0.5))
	}
	return xs
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	higher := metricDef{name: "events_per_s", better: "higher", bound: 0.10}
	exact := metricDef{name: "trace_bytes_per_event", better: "lower"}
	setup := metricDef{name: "setup_s", better: "lower", bound: 0.10, floor: 0.002}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, series(1, 0.04, 10), series(1, 0.04, 10), unchanged},
		{"within bound", lower, series(1, 0.04, 10), series(1.05, 0.04, 10), unchanged},
		{"slower beyond bound", lower, series(1, 0.04, 10), series(1.2, 0.04, 10), worse},
		{"faster", lower, series(1, 0.04, 10), series(0.8, 0.04, 10), improved},
		{"faster but too few pairs", lower, series(1, 0.04, 3), series(0.8, 0.04, 3), unchanged},
		{"throughput up", higher, series(100, 0.04, 10), series(130, 0.04, 10), improved},
		{"throughput down", higher, series(100, 0.04, 10), series(70, 0.04, 10), worse},
		{"noisy", lower, series(1, 0.6, 10), series(1.2, 0.6, 10), unresolved},
		{"noisy but every run better", lower, series(1, 0.3, 10), series(0.5, 0.3, 10), improved},
		{"exact count grows", exact, []float64{3, 3, 3}, []float64{3.1, 3.1, 3.1}, worse},
		{"exact count equal", exact, []float64{3, 3, 3}, []float64{3, 3, 3}, unchanged},
		{"exact count shrinks", exact, []float64{3, 3, 3, 3}, []float64{2.9, 2.9, 2.9, 2.9}, improved},
		{"absolute floor", setup, series(0.004, 0.1, 10), series(0.0055, 0.1, 10), unchanged},
		{"beyond the floor", setup, series(0.004, 0.1, 10), series(0.0075, 0.1, 10), worse},
		{"no samples", lower, nil, series(1, 0, 3), unresolved},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsWorse(t *testing.T) {
	mk := func(wall []float64) *Results {
		return &Results{Workloads: []*WorkloadResult{{Name: "paper", Metrics: map[string]*Summary{
			"wall_s": summarize("s", "lower", wall),
			"cpu_s":  summarize("s", "lower", series(1, 0.02, 10)),
		}}}}
	}
	if n := compare(io.Discard, mk(series(1, 0.02, 10)), mk(series(1.3, 0.02, 10)), nil); n != 1 {
		t.Errorf("compare found %d worse metrics, want 1", n)
	}
	if n := compare(io.Discard, mk(series(1, 0.02, 10)), mk(series(1.3, 0.02, 10)), map[string]float64{"wall_s": 0.5}); n != 0 {
		t.Errorf("with a 50%% bound from BENCHMARK.json compare found %d worse metrics, want 0", n)
	}
}
