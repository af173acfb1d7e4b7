package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/trace"
)

// TestAnalyzeJSONParity pins the byte-identity contract between the CLI
// and the service: `analyze -line N -json` must emit exactly the bytes
// the pipeline + canonical encoder produce — the same bytes vectraced
// serves from /v1/jobs/{id}/report — for both the all-instances and the
// single-instance paths.
func TestAnalyzeJSONParity(t *testing.T) {
	path := writeSample(t)

	for _, tc := range []struct {
		name     string
		instance int
		args     []string
	}{
		{"all instances", -1, nil},
		{"single instance", 0, []string{"-instance", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := pipeline.Compile(path, sampleProgram)
			if err != nil {
				t.Fatal(err)
			}
			regs, err := pipeline.Analyze(context.Background(), pipeline.Source{Module: mod},
				pipeline.Spec{Line: 11, Instances: []int{tc.instance}})
			if err != nil {
				t.Fatal(err)
			}
			want, err := report.RegionsJSON(regs)
			if err != nil {
				t.Fatal(err)
			}

			args := append([]string{"analyze", path, "-line", "11", "-json"}, tc.args...)
			got, err := capture(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("-json output differs from pipeline ground truth:\n got: %s\nwant: %s", got, want)
			}
			// And it must actually be a well-formed regions document.
			var doc struct {
				Regions []json.RawMessage `json:"regions"`
			}
			if err := json.Unmarshal([]byte(got), &doc); err != nil {
				t.Fatalf("-json output is not valid JSON: %v", err)
			}
			if len(doc.Regions) == 0 {
				t.Fatal("-json output has no regions")
			}
		})
	}
}

// TestAnalyzeJSONFlagValidation pins the flag contract: -json needs a
// -line target and excludes the human-oriented -baselines table.
func TestAnalyzeJSONFlagValidation(t *testing.T) {
	path := writeSample(t)
	if _, err := capture(t, "analyze", path, "-json"); err == nil {
		t.Error("-json without -line was accepted")
	}
	if _, err := capture(t, "analyze", path, "-line", "11", "-json", "-baselines"); err == nil {
		t.Error("-json with -baselines was accepted")
	}
}

// TestAnalyzeInstanceFailureExitStatus: when the one requested region fails
// its analysis, `analyze -instance k` exits nonzero in text and -json mode
// alike. The failure is a recorded trace with an instruction of f spliced
// into main's frame inside the loop's first region: it decodes and splits
// into regions cleanly, but the analysis rejects the region.
func TestAnalyzeInstanceFailureExitStatus(t *testing.T) {
	const src = `double a[64];
double f(double x) { return x * 2.0; }
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; }
  print(f(a[3]));
}
`
	dir := t.TempDir()
	path := filepath.Join(dir, "splice.c")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	mod, err := pipeline.Compile(path, src)
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := pipeline.Trace(context.Background(), mod, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Regions(mod.LoopByLine(5).ID)[0]
	foreign := trace.Event{ID: mod.FuncByName("f").Blocks[0].Instrs[0].ID}
	events := append(append(append([]trace.Event{}, tr.Events[:r.Start+1]...), foreign), tr.Events[r.Start+1:]...)
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "splice.vtr")
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-json"}} {
		args := append([]string{"analyze", path, "-trace", tracePath, "-line", "5", "-instance", "0"}, mode...)
		out, err := capture(t, args...)
		if err == nil || !strings.Contains(err.Error(), "pipeline: region 0:") {
			t.Fatalf("%v: error %v, want the region's failure\n%s", mode, err, out)
		}
	}
}
