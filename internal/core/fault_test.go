package core_test

// Failure-model tests for the analysis engine: injected worker panics must
// surface as typed *core.UnitError values naming the poisoned candidate
// while every other candidate's result is unchanged, on the stream kernel
// and the graph reference alike; deadlines must stop the sweep promptly at
// every worker count; and resource
// budgets must degrade into core.ErrResourceLimit errors, never panics.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// faultKernelSrc has one multi-region inner loop (line 6) with several
// floating-point candidates per region, giving the deadline tests enough
// independent work units to cancel in the middle of.
const faultKernelSrc = `
double a[32]; double b[32]; double c[32]; double s;
void main() {
  int t; int i;
  for (t = 0; t < 12; t++) {
    for (i = 1; i < 32; i++) {  /* inner: line 6 */
      a[i] = a[i-1] * 0.5 + 0.25 * i;
      b[i] = b[i] + a[i] * 1.5;
      c[i] = a[i] * b[i] - 0.125;
      s = s + c[i];
    }
  }
  print(s);
}
`

const faultKernelInnerLine = 6

// TestAnalyzePanicIsolation injects a panic into one candidate's analysis
// stage and checks it comes back as a *core.UnitError carrying the
// candidate's identity and stack, with every other candidate's report row
// byte-identical to the no-fault baseline — one poisoned candidate fails
// its region, not the process. The stream kernel and the graph reference
// (at one and four workers) share the contract.
func TestAnalyzePanicIsolation(t *testing.T) {
	_, _, tr, err := pipeline.CompileAndTrace("k.c", parallelTestSources[0])
	if err != nil {
		t.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	engines := []struct {
		name    string
		analyze func() (*core.Report, error)
	}{
		{"kernel", func() (*core.Report, error) {
			return pipeline.AnalyzeRegion(context.Background(), tr, ddg.Options{}, core.Options{})
		}},
		{"reference/w1", func() (*core.Report, error) {
			return core.AnalyzeCtx(context.Background(), g, core.Options{Workers: 1})
		}},
		{"reference/w4", func() (*core.Report, error) {
			return core.AnalyzeCtx(context.Background(), g, core.Options{Workers: 4})
		}},
	}
	baseline, err := engines[0].analyze()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.PerInstr) < 3 {
		t.Fatalf("test kernel has %d candidates, want >= 3", len(baseline.PerInstr))
	}
	target := baseline.PerInstr[len(baseline.PerInstr)/2].ID
	restore := core.SetAnalyzeUnitHook(func(id int32) {
		if id == target {
			panic("injected candidate fault")
		}
	})
	defer restore()

	for _, e := range engines {
		rep, err := e.analyze()
		if err == nil {
			t.Fatalf("%s: poisoned sweep reported no error", e.name)
		}
		var ue *core.UnitError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: error %v carries no *core.UnitError", e.name, err)
		}
		if ue.Kind != "candidate" || ue.ID != int64(target) {
			t.Fatalf("%s: UnitError names %s %d, want candidate %d", e.name, ue.Kind, ue.ID, target)
		}
		if len(ue.Stack) == 0 {
			t.Fatalf("%s: UnitError has no stack", e.name)
		}
		if !strings.Contains(err.Error(), "injected candidate fault") {
			t.Fatalf("%s: error %q lost the panic value", e.name, err)
		}
		if rep == nil {
			t.Fatalf("%s: degraded report is nil", e.name)
		}
		for i, row := range rep.PerInstr {
			if row.ID == target {
				if row.Text != "" {
					t.Fatalf("%s: poisoned candidate %d has a live report row", e.name, target)
				}
				continue
			}
			if !reflect.DeepEqual(row, baseline.PerInstr[i]) {
				t.Fatalf("%s: candidate %d's row changed under a fault in candidate %d", e.name, row.ID, target)
			}
		}
	}
}

// TestAnalyzeRegionsDeadline drives the full per-region analysis with a
// slow per-candidate stage and a deadline far shorter than the total work.
// At every worker count the call must return promptly after
// the deadline — having skipped most of the work — with an error satisfying
// errors.Is for both context.DeadlineExceeded and core.ErrCanceled.
func TestAnalyzeRegionsDeadline(t *testing.T) {
	_, _, tr, err := pipeline.CompileAndTrace("deadline.c", faultKernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(ctx context.Context, copts core.Options) ([]pipeline.RegionReport, error) {
		src := pipeline.Source{Module: tr.Module, Events: &trace.SliceSource{Events: tr.Events}}
		return pipeline.Analyze(ctx, src, pipeline.Spec{Line: faultKernelInnerLine, Instances: []int{-1}, Core: copts})
	}
	// Total work units = regions x candidates per region, from a no-fault run.
	regs, err := analyze(context.Background(), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	totalUnits := 0
	for _, rr := range regs {
		totalUnits += len(rr.Report.PerInstr)
	}
	if totalUnits < 40 {
		t.Fatalf("test kernel yields %d work units, want >= 40", totalUnits)
	}

	var calls atomic.Int64
	restore := core.SetAnalyzeUnitHook(func(id int32) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
	})
	defer restore()

	for _, workers := range []int{1, 4} {
		calls.Store(0)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		_, err := analyze(ctx, core.Options{Workers: workers})
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: deadline produced no error", workers)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: error %v does not wrap context.DeadlineExceeded", workers, err)
		}
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("workers=%d: error %v does not wrap core.ErrCanceled", workers, err)
		}
		if done := calls.Load(); done >= int64(totalUnits) {
			t.Fatalf("workers=%d: all %d units ran despite the deadline", workers, totalUnits)
		}
		// Uncanceled, the sweep needs totalUnits x 20ms / workers; the
		// deadline must cut that to roughly one in-flight unit per worker.
		if limit := 5 * time.Second; elapsed > limit {
			t.Fatalf("workers=%d: returned after %v, want < %v", workers, elapsed, limit)
		}
	}
}

// TestInterpRunContextCancellation: a canceled context stops the
// interpreter at its step-counter poll with an error wrapping both
// cancellation sentinels.
func TestInterpRunContextCancellation(t *testing.T) {
	mod, err := pipeline.Compile("spin.c", `
double s;
void main() {
  int i;
  for (i = 0; i < 100000000; i++) { s = s + 1.0; }
  print(s);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = pipeline.Run(ctx, mod, false, core.Budget{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("interpreter returned after %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("error %v does not wrap the cancellation sentinels", err)
	}
}

// TestBudgetMaxSteps: the step budget surfaces as core.ErrResourceLimit
// through the pipeline, not as a hang or panic.
func TestBudgetMaxSteps(t *testing.T) {
	mod, err := pipeline.Compile("steps.c", `
double s;
void main() {
  int i;
  for (i = 0; i < 1000; i++) { s = s + 1.0; }
  print(s);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Run(context.Background(), mod, false, core.Budget{MaxSteps: 50})
	if !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("error %v does not wrap core.ErrResourceLimit", err)
	}
}

// TestBudgetCallDepthAndStack: recursion exhausting the configured depth or
// stack arena returns a core.ErrResourceLimit error naming the call depth —
// the condition that used to panic inside pushFrame.
func TestBudgetCallDepthAndStack(t *testing.T) {
	mod, err := pipeline.Compile("deep.c", `
int down(int n) {
  if (n == 0) { return 0; }
  return down(n - 1);
}
void main() { printi(down(500)); }
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Run(context.Background(), mod, false, core.Budget{MaxDepth: 16})
	if !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("MaxDepth error %v does not wrap core.ErrResourceLimit", err)
	}
	if !strings.Contains(err.Error(), "depth") {
		t.Fatalf("MaxDepth error %q does not mention the call depth", err)
	}

	_, err = pipeline.Run(context.Background(), mod, false, core.Budget{MaxStackBytes: 2048})
	if !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("stack-arena error %v does not wrap core.ErrResourceLimit", err)
	}
	if !strings.Contains(err.Error(), "call depth") {
		t.Fatalf("stack-arena error %q does not name the call depth", err)
	}
}

// TestBudgetAnalysisBytes: an analysis heap budget too small for even one
// candidate's timestamp vector fails the graph reference up front with
// core.ErrResourceLimit instead of attempting the allocation.
func TestBudgetAnalysisBytes(t *testing.T) {
	g := buildKernelGraph(t, parallelTestSources[0])
	_, err := core.AnalyzeCtx(context.Background(), g, core.Options{
		Budget: core.Budget{MaxAnalysisBytes: 64},
	})
	if !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("error %v does not wrap core.ErrResourceLimit", err)
	}
	// A budget that is not binding must still succeed and match the
	// unbudgeted report exactly.
	want, err := core.AnalyzeCtx(context.Background(), g, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.AnalyzeCtx(context.Background(), g, core.Options{
		Workers: 2,
		Budget:  core.Budget{MaxAnalysisBytes: 8 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a non-binding analysis budget changed the report")
	}
}

// TestAnalyzeCtxMatchesAnalyze pins the no-fault golden contract: the typed
// entry point and the legacy wrapper produce identical reports.
func TestAnalyzeCtxMatchesAnalyze(t *testing.T) {
	for _, src := range parallelTestSources {
		g := buildKernelGraph(t, src)
		want := core.Analyze(g, core.Options{Workers: 2})
		got, err := core.AnalyzeCtx(context.Background(), g, core.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("AnalyzeCtx diverged from Analyze on the no-fault path")
		}
	}
}

// TestCanceledScanner: a canceled context surfaces through the region
// scanner via the pipeline's streaming entry point (covered in more depth
// by the pipeline fault suite); here we pin the ParallelFor layer directly.
func TestParallelForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := core.ParallelFor(ctx, 100, 1, func(i int) error {
		ran++
		return nil
	})
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap the cancellation sentinels", err)
	}
	if ran != 0 {
		t.Fatalf("%d units ran under a pre-canceled context", ran)
	}
}

// TestParallelForPanicToUnitError: the pool converts a unit panic into a
// positional UnitError and keeps every other unit's work.
func TestParallelForPanicToUnitError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		done := make([]bool, 16)
		err := core.ParallelFor(nil, len(done), workers, func(i int) error {
			if i == 7 {
				panic("unit seven is poisoned")
			}
			done[i] = true
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error from a panicking unit", workers)
		}
		var ue *core.UnitError
		if !errors.As(err, &ue) {
			t.Fatalf("workers=%d: error %v carries no *core.UnitError", workers, err)
		}
		if ue.Unit != 7 {
			t.Fatalf("workers=%d: UnitError names unit %d, want 7", workers, ue.Unit)
		}
		for i, ok := range done {
			if i != 7 && !ok {
				t.Fatalf("workers=%d: unit %d was skipped after the panic", workers, i)
			}
		}
	}
}
