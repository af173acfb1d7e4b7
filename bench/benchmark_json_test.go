package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesDictionary keeps BENCHMARK.json and the suite's
// metric dictionary in step: the metrics it names, in order, with the same
// units, directions and bounds, and the same workloads.
func TestBenchmarkJSONMatchesDictionary(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the suite")
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, the suite has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the suite's is %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, names []string, defs []metricDef) {
		if len(got) != len(names) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, the suite reports %d", len(got), kind, len(names))
		}
		for i, m := range got {
			d, ok := findDef(defs, names[i])
			if !ok || m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the suite %+v", kind, i, m, d)
			}
			if m.Bound != nil && *m.Bound != d.bound {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the suite", m.Name, *m.Bound, d.bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, benchmarkE2E, e2eDefs)
	check("per-layer", doc.PerLayer, benchmarkLayers, layerDefs)
}
