package pipeline_test

// Differential battery for the hot path: the live pipeline — the
// precompiled-plan interpreter feeding the stream kernel with its paged
// shadow memory — must be invisible in every output. Random programs run
// through it at every worker count, and each run's RegionReports and
// rendered report text must equal the per-region graph reference. Error
// surfaces (interpreter step limits, analysis budgets) and the RunStats
// counter contract are pinned against the same analysis over a recorded
// trace. The plan dispatcher's own reference is the switch loop in
// internal/interp's tests; the paged shadow's is the map in internal/core's.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
)

// renderHotRegions flattens RegionReports into the exact text `vectrace
// analyze -instance -1` prints, so the comparison pins the golden bytes and
// not only the struct values.
func renderHotRegions(regs []pipeline.RegionReport) string {
	var b strings.Builder
	for _, rr := range regs {
		fmt.Fprintf(&b, "== region %d: %d events ==\n", rr.Index, rr.Events)
		if rr.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", rr.Err)
			continue
		}
		b.WriteString(rr.Report.String())
	}
	return b.String()
}

// TestHotPathDifferentialMatrix is the headline equivalence proof for the
// live pipeline: for random programs, every loop, and every worker count,
// it returns RegionReports deeply equal to the graph reference over the
// captured trace, and renders the same text.
func TestHotPathDifferentialMatrix(t *testing.T) {
	workerAxis := []int{1, 4, runtime.GOMAXPROCS(0)}
	const programs = 3
	for seed := int64(900); seed < 900+programs; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generateProgram(seed)
			mod, _, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("hot%d.c", seed), src)
			if err != nil {
				t.Fatalf("compile failed:\n%s\nerror: %v", src, err)
			}
			live := pipeline.Source{Module: mod}
			for _, line := range loopLines(mod) {
				want := referenceRegions(t, tr, line, ddg.Options{}, core.Options{})
				golden := renderHotRegions(want)
				for _, workers := range workerAxis {
					regs, err := analyzeAll(context.Background(), live, line, core.Options{Workers: workers})
					label := fmt.Sprintf("line %d workers=%d", line, workers)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(regs, want) {
						t.Fatalf("%s: region reports diverge from the reference\nprogram:\n%s", label, src)
					}
					if got := renderHotRegions(regs); got != golden {
						t.Fatalf("%s: rendered report text diverges from the reference", label)
					}
				}
			}
		})
	}
}

// TestHotPathErrorTextParity pins the error surface: a step budget
// exhausted during live analysis reports the interpreter's own error text,
// and a per-region analysis budget failure degrades the live analysis
// exactly like the analysis of the recorded trace.
func TestHotPathErrorTextParity(t *testing.T) {
	mod, _, tr, err := pipeline.CompileAndTrace("fault.c", faultSrc)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("interp-step-limit", func(t *testing.T) {
		budget := core.Budget{MaxSteps: 100}
		_, err := analyzeAll(context.Background(), pipeline.Source{Module: mod, Budget: budget}, faultInnerLine, core.Options{})
		if !errors.Is(err, core.ErrResourceLimit) {
			t.Fatalf("step limit of %d not enforced: %v", budget.MaxSteps, err)
		}
		_, runErr := pipeline.Run(context.Background(), mod, true, budget)
		if runErr == nil || err.Error() != runErr.Error() {
			t.Fatalf("step-limit error text differs:\nanalysis:    %v\ninterpreter: %v", err, runErr)
		}
	})

	t.Run("analysis-budget", func(t *testing.T) {
		copts := core.Options{Workers: 1, Budget: core.Budget{MaxAnalysisBytes: 256}}
		var rendered []string
		for _, src := range []pipeline.Source{{Module: mod}, sliceSource(tr)} {
			regs, err := analyzeAll(context.Background(), src, faultInnerLine, copts)
			if err == nil {
				t.Fatalf("%d-byte analysis budget not enforced", copts.Budget.MaxAnalysisBytes)
			}
			rendered = append(rendered, renderHotRegions(regs)+"\nsummary: "+err.Error())
		}
		if rendered[0] != rendered[1] {
			t.Fatalf("budget degradation differs:\nlive:\n%s\nrecorded:\n%s", rendered[0], rendered[1])
		}
	})
}

// TestHotPathCounterContract runs the live pipeline and the analysis of
// the recorded trace under fresh recorders and checks (a) the shared
// RunStats counters — region lifecycle, graph size, analysis output — are
// identical, and (b) the engine counters register: the plan dispatcher
// delivers batched events and the paged shadow touches pages.
func TestHotPathCounterContract(t *testing.T) {
	mod, _, tr, err := pipeline.CompileAndTrace("fault.c", faultSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(src pipeline.Source) *obs.Recorder {
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		if _, err := analyzeAll(ctx, src, faultInnerLine, core.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	liveRec := run(pipeline.Source{Module: mod})
	recordedRec := run(sliceSource(tr))

	for _, ctr := range diffCounterParity {
		if l, r := liveRec.Get(ctr), recordedRec.Get(ctr); l != r {
			t.Errorf("counter %s: live %d, recorded %d", ctr.Name(), l, r)
		}
	}
	if got := liveRec.Get(obs.InterpBatchedEvents); got == 0 {
		t.Error("plan dispatch delivered no batched events")
	}
	for name, rec := range map[string]*obs.Recorder{"live": liveRec, "recorded": recordedRec} {
		if got := rec.Get(obs.ShadowPagesTouched); got == 0 {
			t.Errorf("%s: paged shadow touched no pages", name)
		}
	}
}

// TestHotPathPlanReuseAcrossPipeline checks the plan cache contract at the
// pipeline layer: two traced executions of one module must agree event for
// event (the second run reuses the module's compiled plan and the pooled
// TraceSink backing).
func TestHotPathPlanReuseAcrossPipeline(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", faultSrc)
	if err != nil {
		t.Fatal(err)
	}
	plan := interp.CompilePlan(mod)
	res1, tr1, err := pipeline.Trace(context.Background(), mod, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	res2, tr2, err := pipeline.Trace(context.Background(), mod, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(tr1.Events, tr2.Events) {
		t.Fatal("repeated traced runs of one module disagree")
	}
	// A machine sharing the precompiled plan agrees too.
	sink := &interp.TraceSink{}
	m := interp.New(mod, interp.Config{Plan: plan, Tracer: sink, CountLoopCycles: true})
	if _, err := m.RunContext(context.Background(), "main"); err != nil {
		t.Fatal(err)
	}
	if len(sink.Events) != len(tr1.Events) {
		t.Fatalf("shared-plan run traced %d events, pipeline traced %d", len(sink.Events), len(tr1.Events))
	}
}
