package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestPercentileRule: a timing is reported at the highest percentile with at
// least ten samples beyond it. The service's steps of 600 jobs leave 12
// beyond p98 and too few beyond p99.
func TestPercentileRule(t *testing.T) {
	beyond := func(p float64, n int) int { return n - rank(p, n) }
	if b := beyond(98, serviceStepJobs); b < 10 {
		t.Errorf("p98 of %d jobs has %d samples beyond it, want at least 10", serviceStepJobs, b)
	}
	if b := beyond(99, serviceStepJobs); b >= 10 {
		t.Errorf("p99 of %d jobs has %d samples beyond it: the service could report p99", serviceStepJobs, b)
	}
	if b := beyond(99.9, 10000); b != 10 {
		t.Errorf("p99.9 of 10000 has %d samples beyond it, want 10", b)
	}
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 98); p != 588 {
		t.Errorf("p98 of 1..600 = %v, want 588 (12 samples beyond)", p)
	}
	if p := percentile([]float64{3, 1, 2, math.Inf(1)}, 50); p != 2 {
		t.Errorf("median with a refused sample = %v, want 2", p)
	}
}

func TestRankSumP(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if p := rankSumP(a, b); p > 0.001 {
		t.Errorf("disjoint samples: p = %v, want < 0.001", p)
	}
	if p := rankSumP(a, a); p < 0.9 {
		t.Errorf("identical samples: p = %v, want near 1", p)
	}
	if p := rankSumP([]float64{1, 1}, []float64{1, 1}); p != 1 {
		t.Errorf("all ties: p = %v, want 1", p)
	}
}
