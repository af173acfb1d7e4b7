package pipeline_test

// Randomized determinism testing of the concurrent analysis scheduler:
// across ≥50 generated programs, the parallel Analyze must deep-equal the
// sequential (Workers=1) oracle for every worker count, and region-level
// fan-out (Analyze) must match a hand-rolled sequential sweep.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
)

// TestRandomProgramsParallelDeterminism is the scheduler's property test:
// 50 random programs, each analyzed sequentially and with 2, 4, and 8
// workers; any scheduling-order dependence in the pipeline shows up as a
// deep-inequality.
func TestRandomProgramsParallelDeterminism(t *testing.T) {
	const programs = 50
	for seed := int64(1000); seed < 1000+programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generateProgram(seed)
			_, _, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("par%d.c", seed), src)
			if err != nil {
				t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
			}
			g, err := ddg.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			seq := core.Analyze(g, core.Options{Workers: 1})
			for _, w := range []int{2, 4, 8} {
				par := core.Analyze(g, core.Options{Workers: w})
				if !reflect.DeepEqual(seq, par) {
					t.Fatalf("seed %d: Workers=%d report differs from sequential\nprogram:\n%s", seed, w, src)
				}
			}
		})
	}
}

// TestAnalyzeMatchesSequential checks the region-level fan-out against the
// obvious sequential loop over Trace.Regions + Build + Analyze.
func TestAnalyzeMatchesSequential(t *testing.T) {
	// The inner j-loop executes once per outer iteration, giving the outer
	// dimension's worth of dynamic regions to fan out.
	src := `
double A[8][8];
double s;
void main() {
  int i;
  int j;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      A[i][j] = 0.25 * i + 0.5 * j;
    }
  }
  for (i = 0; i < 8; i++) {
    for (j = 1; j < 8; j++) {
      s = s + A[i][j] * A[i][j - 1];
    }
  }
  print(s);
}
`
	_, _, tr, err := pipeline.CompileAndTrace("regions.c", src)
	if err != nil {
		t.Fatal(err)
	}
	const innerLine = 13 // for (j = 1; ...) keyword line
	got, err := analyzeAll(context.Background(), sliceSource(tr), innerLine, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("expected 8 dynamic regions, got %d", len(got))
	}
	regions := tr.Regions(tr.Module.LoopByLine(innerLine).ID)
	for i := range got {
		sub := tr.Slice(regions[i])
		g, err := ddg.Build(sub)
		if err != nil {
			t.Fatal(err)
		}
		want := pipeline.RegionReport{Index: i, Events: sub.Len(), Report: core.Analyze(g, core.Options{})}
		if got[i].Index != want.Index || got[i].Events != want.Events ||
			!reflect.DeepEqual(got[i].Report, want.Report) {
			t.Fatalf("region %d: fan-out result differs from sequential", i)
		}
	}
}
