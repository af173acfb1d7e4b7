package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"strconv"
	"testing"
)

// TestGoldenOracle holds a CSV built from the golden Table 2 rows to them,
// and catches a value moved by more than the CSV's rounding.
func TestGoldenOracle(t *testing.T) {
	b, err := os.ReadFile("../internal/report/testdata/golden/table2.golden")
	if err != nil {
		t.Skip("golden files are not next to the suite")
	}
	want, err := parseGolden(string(b), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	render := func(bump float64) []byte {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		w.Write([]string{"benchmark", "packed_pct", "avg_concurrency", "unit_pct", "unit_size", "nonunit_pct", "nonunit_size"}) //nolint:errcheck
		for i, row := range want {
			out := []string{row[0]}
			for j, v := range row[1:] {
				f, _ := strconv.ParseFloat(v, 64)
				if i == 1 && j == 2 {
					f += bump
				}
				out = append(out, strconv.FormatFloat(f, 'f', 3, 64))
			}
			w.Write(out) //nolint:errcheck
		}
		w.Flush()
		return buf.Bytes()
	}
	if err := matchGolden(render(0), want); err != nil {
		t.Errorf("golden rows rendered like vecbench -csv fail the oracle: %v", err)
	}
	if err := matchGolden(render(0.002), want); err == nil {
		t.Error("a value 0.002 off its golden passed the oracle")
	}
}
