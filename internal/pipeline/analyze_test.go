package pipeline_test

// Source equivalence for the one entry point: whatever the events come from
// — the live interpreter, a VTR1 stream, an indexed VTR2 container at any
// scan fan-out, a VTR2 sequential walk, an in-memory slice — Analyze must
// return the same reports and the same error texts, for every-region and
// selected-region requests alike, with and without reduction relaxation.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// analyzeAll runs Analyze over every region of the loop on line.
func analyzeAll(ctx context.Context, src pipeline.Source, line int, copts core.Options) ([]pipeline.RegionReport, error) {
	return pipeline.Analyze(ctx, src, pipeline.Spec{Line: line, Instances: []int{-1}, Core: copts})
}

// indexedSource is the Source of an opened VTR2 container with a verified
// index, over mod.
func indexedSource(mod *ir.Module, c *trace.Container) pipeline.Source {
	return pipeline.Source{Module: mod, Trace: &trace.Opened{Format: trace.FormatVTR2, Container: c}}
}

// sliceSource is the Source of an in-memory trace.
func sliceSource(tr *trace.Trace) pipeline.Source {
	return pipeline.Source{Module: tr.Module, Events: &trace.SliceSource{Events: tr.Events}}
}

// analysisResult is one Analyze outcome in comparable form.
type analysisResult struct {
	regs []pipeline.RegionReport
	err  string
}

func analyzeResult(src pipeline.Source, spec pipeline.Spec) analysisResult {
	regs, err := pipeline.Analyze(context.Background(), src, spec)
	r := analysisResult{regs: regs, err: "<nil>"}
	for i := range r.regs {
		r.regs[i].Elapsed = 0
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// triangularSrc's inner loop runs a different trip count in every dynamic
// region, so a request answered with the wrong region cannot pass for the
// right one.
const triangularSrc = `
double a[16];
double s;
void main() {
  int i; int j;
  for (i = 1; i < 6; i++) {
    for (j = 1; j < 2 + i * 2; j++) { a[j] = a[j-1] * 0.5 + s; }
    s = s + a[i];
  }
  print(s);
}
`

// recursiveSrc's inner loop re-enters itself through recursion: each
// walk(0) call opens four nested regions that close innermost first, so
// close indices and entry ordinals disagree, and the regions differ in
// size by depth.
const recursiveSrc = `
double a[64];
double s;
void walk(int d) {
  int i;
  for (i = 0; i < 4; i++) {
    a[d * 16 + i] = a[d * 16 + i] * 0.5 + s;
    s = s + a[d * 16 + i + 4];
    if (d < 3) {
      if (i == 1) { walk(d + 1); }
    }
  }
}
void main() {
  int t;
  for (t = 0; t < 3; t++) { walk(0); }
  print(s);
}
`

// TestAnalyzeSourcesAgree: every source answers every selection — all
// regions, one region, an out-of-range region, and the tables' first/
// middle/last sample listed out of order with a repeat — with the same
// reports and errors as the live every-region run.
func TestAnalyzeSourcesAgree(t *testing.T) {
	copts := []core.Options{{}, {RelaxReductions: true}}
	programs := map[string]string{"triangular": triangularSrc, "recursive": recursiveSrc}
	for seed := int64(500); seed < 506; seed++ {
		programs[fmt.Sprintf("seed%d", seed)] = generateProgram(seed)
	}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			mod, _, tr, err := pipeline.CompileAndTrace(name+".c", src)
			if err != nil {
				t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
			}
			vtr1, vtr2 := recordBoth(t, mod, trace.ContainerOptions{BlockBytes: 1 << 10, Codec: "flate"})
			open := func(data []byte) *trace.Opened {
				o, err := trace.OpenTrace(bytes.NewReader(data), int64(len(data)), nil)
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			sources := []struct {
				name        string
				src         func() pipeline.Source
				scanWorkers int
			}{
				{"vtr1", func() pipeline.Source { return pipeline.Source{Module: mod, Trace: open(vtr1)} }, 0},
				{"vtr2-indexed-1", func() pipeline.Source { return pipeline.Source{Module: mod, Trace: open(vtr2)} }, 1},
				{"vtr2-indexed-4", func() pipeline.Source { return pipeline.Source{Module: mod, Trace: open(vtr2)} }, 4},
				{"vtr2-sequential", func() pipeline.Source { return pipeline.Source{Module: mod, Trace: open(vtr2)} }, -1},
				{"slice", func() pipeline.Source { return sliceSource(tr) }, 0},
			}
			for _, line := range loopLines(mod) {
				for _, co := range copts {
					live := pipeline.Source{Module: mod}
					all := analyzeResult(live, pipeline.Spec{Line: line, Instances: []int{-1}, Core: co})
					n := len(all.regs)
					selections := [][]int{{-1}, {0}, {n}, {n - 1}, {n - 1, 0, n / 2, 0}}
					for _, sel := range selections {
						spec := pipeline.Spec{Line: line, Instances: sel, Core: co}
						want := analyzeResult(live, spec)
						if sel[0] >= 0 && sel[0] < n {
							var picked []pipeline.RegionReport
							for _, i := range sel {
								picked = append(picked, all.regs[i])
							}
							if !reflect.DeepEqual(want.regs, picked) {
								t.Fatalf("line %d instances %v %+v: selected reports differ from the every-region run", line, sel, co)
							}
						}
						inst := sel
						for _, s := range sources {
							spec.ScanWorkers = s.scanWorkers
							got := analyzeResult(s.src(), spec)
							label := fmt.Sprintf("line %d instance %d %+v %s", line, inst, co, s.name)
							if got.err != want.err {
								t.Fatalf("%s: error %q, live %q", label, got.err, want.err)
							}
							if !reflect.DeepEqual(got.regs, want.regs) {
								t.Fatalf("%s: reports differ from the live source\nprogram:\n%s", label, src)
							}
						}
					}
				}
			}
		})
	}
}

// TestAnalyzeInstanceFailureIsReturned: when the one requested region fails
// its analysis, every source returns the failure as Analyze's error as
// well as in the region's Err — a caller that only checks the error (the
// CLI's exit status, the service's cache) must see it.
func TestAnalyzeInstanceFailureIsReturned(t *testing.T) {
	mod, _, tr, err := pipeline.CompileAndTrace("triangular.c", triangularSrc)
	if err != nil {
		t.Fatal(err)
	}
	vtr1, vtr2 := recordBoth(t, mod, trace.ContainerOptions{BlockBytes: 1 << 10, Codec: "flate"})
	open := func(data []byte) pipeline.Source {
		o, err := trace.OpenTrace(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.Source{Module: mod, Trace: o}
	}
	const line = 7 // triangularSrc's inner loop: five regions
	for _, co := range []core.Options{
		{Budget: core.Budget{MaxAnalysisBytes: 256}},
		{RelaxReductions: true, Budget: core.Budget{MaxAnalysisBytes: 256}},
	} {
		for _, s := range []struct {
			name        string
			src         pipeline.Source
			scanWorkers int
		}{
			{"live", pipeline.Source{Module: mod}, 0},
			{"vtr1", open(vtr1), 0},
			{"vtr2-indexed", open(vtr2), 1},
			{"vtr2-sequential", open(vtr2), -1},
			{"slice", sliceSource(tr), 0},
		} {
			regs, err := pipeline.Analyze(context.Background(), s.src,
				pipeline.Spec{Line: line, Instances: []int{2}, Core: co, ScanWorkers: s.scanWorkers})
			label := fmt.Sprintf("%s relax=%v", s.name, co.RelaxReductions)
			if len(regs) != 1 || regs[0].Err == nil {
				t.Fatalf("%s: got %d reports, want one failed region", label, len(regs))
			}
			if err == nil || err.Error() != regs[0].Err.Error() {
				t.Fatalf("%s: error %v, want the region's %v", label, err, regs[0].Err)
			}
		}
	}
}

// TestLiveSelectionPasses: a live selected-regions request executes the
// program once when the target regions do not nest, and a second time only
// when recursion reorders their closes — counted by the regions the feed
// closed.
func TestLiveSelectionPasses(t *testing.T) {
	for _, tc := range []struct {
		name      string
		src       string
		line      int
		regions   int64
		passes    int64
		instances []int
	}{
		{"triangular", triangularSrc, 7, 5, 1, []int{0, 2, 4}},
		{"recursive", recursiveSrc, 6, 12, 2, []int{0, 6, 11}},
	} {
		mod, err := pipeline.Compile(tc.name+".c", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		regs, err := pipeline.Analyze(ctx, pipeline.Source{Module: mod}, pipeline.Spec{Line: tc.line, Instances: tc.instances})
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != len(tc.instances) {
			t.Fatalf("%s: %d reports, want %d", tc.name, len(regs), len(tc.instances))
		}
		if got, want := rec.Get(obs.RegionsScanned), tc.passes*tc.regions; got != want {
			t.Errorf("%s: the feed closed %d regions, want %d (%d pass(es) over %d regions)", tc.name, got, want, tc.passes, tc.regions)
		}
		if got := rec.Get(obs.RegionsCompleted); got != int64(len(tc.instances)) {
			t.Errorf("%s: %d regions completed, want %d", tc.name, got, len(tc.instances))
		}
	}
}
