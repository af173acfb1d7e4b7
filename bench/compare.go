package main

// The comparator: judge every (end-to-end metric, workload) pair of two
// result files under the metric's bound, and print the per-layer deltas.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// minPairs is the fewest (base, new) sample pairs a gain may rest on.
const minPairs = 10

// judge compares the new samples b against the base samples a:
//
//   - improved: b beats a in at least 9/10 of all (a, b) pairs, ties counting
//     for neither, and the medians differ by more than a's interquartile
//     spread and by more than the bound — two runs that did not alternate
//     cannot tell a smaller gain from drift in the machine's speed;
//   - unresolved: either side's spread is wider than the bound, unless every
//     b beats every a — such a run cannot tell a change from noise;
//   - worse: b's median is worse than a's by more than the bound;
//   - unchanged: otherwise.
func judge(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	sign := -1.0 // lower is better
	if d.better == "higher" {
		sign = 1
	}
	ma, mb := median(a), median(b)
	gain := sign * (mb - ma)
	q1a, _, q3a := quartiles(a)
	q1b, _, q3b := quartiles(b)
	margin := max(d.bound*math.Abs(ma), d.floor)
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) > 0 {
				wins++
			}
		}
	}
	pairs := len(a) * len(b)
	switch {
	case pairs >= minPairs && 10*wins >= 9*pairs && gain > q3a-q1a && gain > margin:
		return improved
	case max(q3a-q1a, q3b-q1b) > margin && wins < pairs:
		return unresolved
	case -gain > margin:
		return worse
	}
	return unchanged
}

// benchmarkBounds reads the end-to-end bounds of a BENCHMARK.json.
func benchmarkBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

func readResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

func compareCmd(args []string, w io.Writer) error {
	if len(args) != 2 {
		return usageError(errors.New("compare needs two result files: base.json new.json"))
	}
	base, err := readResults(args[0])
	if err != nil {
		return err
	}
	next, err := readResults(args[1])
	if err != nil {
		return err
	}
	// The checkout's BENCHMARK.json bounds apply; without one, the suite's
	// own dictionary does.
	var bounds map[string]float64
	if root, err := findRoot(); err == nil {
		bounds, err = benchmarkBounds(filepath.Join(root, "BENCHMARK.json"))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	nWorse := compare(w, base, next, bounds)
	if nWorse > 0 {
		return fmt.Errorf("%d metric(s) worse", nWorse)
	}
	return nil
}

// compare prints the verdict table and the per-layer deltas and returns how
// many pairs are worse.
func compare(w io.Writer, base, next *Results, bounds map[string]float64) int {
	fmt.Fprintf(w, "base: seed %d, %s, commit %s\nnew:  seed %d, %s, commit %s\n\n",
		base.Seed, base.Started, base.Machine.Commit, next.Seed, next.Started, next.Machine.Commit)
	fmt.Fprintf(w, "%-13s %-22s %-9s %12s %12s %8s %6s  %s\n", "workload", "metric", "unit", "base", "new", "delta", "p", "verdict")
	nWorse := 0
	byName := map[string]*WorkloadResult{}
	for _, wr := range next.Workloads {
		byName[wr.Name] = wr
	}
	for _, a := range base.Workloads {
		b, ok := byName[a.Name]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from the new results\n", a.Name)
			continue
		}
		for _, name := range workloadE2E[a.Name] {
			sa, sb := a.Metrics[name], b.Metrics[name]
			if sa == nil || sb == nil {
				continue
			}
			d, _ := findDef(e2eDefs, name)
			if bound, ok := bounds[name]; ok {
				d.bound = bound
			}
			v := judge(d, sa.Samples, sb.Samples)
			if v == worse {
				nWorse++
			}
			fmt.Fprintf(w, "%-13s %-22s %-9s %12.5g %12.5g %7.1f%% %6.3f  %s\n", a.Name, name, sa.Unit,
				sa.Median, sb.Median, delta(sa.Median, sb.Median), rankSumP(sa.Samples, sb.Samples), v)
		}
	}
	fmt.Fprintf(w, "\nper-layer deltas (traced run medians)\n")
	for _, a := range base.Workloads {
		b := byName[a.Name]
		if b == nil {
			continue
		}
		names := make([]string, 0, len(a.Layers))
		for n := range a.Layers {
			if b.Layers[n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			sa, sb := a.Layers[n], b.Layers[n]
			fmt.Fprintf(w, "%-13s %-26s %-6s %12.5g %12.5g %7.1f%% %6.3f\n", a.Name, n, sa.Unit,
				sa.Median, sb.Median, delta(sa.Median, sb.Median), rankSumP(sa.Samples, sb.Samples))
		}
	}
	return nWorse
}

// delta is the relative change from a to b in percent.
func delta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / math.Abs(a)
}
