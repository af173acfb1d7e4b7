package main

import (
	"math"
	"sort"
)

// Summary is a metric's raw samples plus the statistics the suite reports.
type Summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(unit, better string, samples []float64) *Summary {
	q1, med, q3 := quartiles(samples)
	return &Summary{Unit: unit, Better: better, N: len(samples), Median: med, Q1: q1, Q3: q3,
		Samples: samples}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// suite's spreads match what an external check computes from the same
// samples. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the p-th percentile among n samples:
// the smallest rank with at least p% of the samples at or below it. The
// tolerance absorbs percentages that are inexact in binary (99.9). A tail
// percentile is worth reporting only with at least ten samples beyond its
// rank.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs. Infinite
// samples (refused requests) sort last.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[rank(p, len(s))-1]
}

// rankSumP returns the two-sided p-value of the Mann–Whitney rank-sum test
// of a against b, by the normal approximation with tie correction. It is
// 1 when either side has no samples or every sample ties.
func rankSumP(a, b []float64) float64 {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v    float64
		from int
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var r1, ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mean of ranks i+1 .. j
		for k := i; k < j; k++ {
			if all[k].from == 0 {
				r1 += rank
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	u := r1 - n1*(n1+1)/2
	n := n1 + n2
	sigma2 := n1 * n2 / 12 * ((n + 1) - ties/(n*(n-1)))
	if sigma2 <= 0 {
		return 1
	}
	z := (math.Abs(u-n1*n2/2) - 0.5) / math.Sqrt(sigma2)
	if z < 0 {
		z = 0
	}
	return math.Erfc(z / math.Sqrt2)
}
