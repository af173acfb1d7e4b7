package pipeline_test

// Differential battery for the hot-path engine: the precompiled-plan
// interpreter dispatch and the paged shadow memory must be invisible in
// every output. Random programs run through the fully fused live pipeline
// under every combination of {plan, oracle} dispatch × {paged, map} shadow
// × worker count × tile width, and each combination's RegionReports and
// rendered report text must be deeply equal to the all-legacy oracle. Error surfaces (interpreter step limits, analysis
// budgets) and the RunStats counter contract are pinned the same way.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
)

// hotPathCombos enumerates the engine matrix: both dispatchers crossed with
// both shadow implementations.
type hotPathCombo struct {
	name            string
	oracle, mapShdw bool
}

var hotPathCombos = []hotPathCombo{
	{"plan+paged", false, false},
	{"plan+map", false, true},
	{"oracle+paged", true, false},
	{"oracle+map", true, true},
}

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

// TestHotPathDifferentialMatrix is the headline equivalence proof for this
// PR's engines: for random programs, every loop, every engine combination,
// every worker count, and both tile widths, the fused live pipeline returns
// RegionReports deeply equal to the all-legacy oracle (switch-loop
// dispatch, map shadow, sequential workers).
func TestHotPathDifferentialMatrix(t *testing.T) {
	workerAxis := []int{1, 4, runtime.GOMAXPROCS(0)}
	tileAxis := []int{1, 64}
	const programs = 3
	for seed := int64(900); seed < 900+programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generateProgram(seed)
			mod, err := pipeline.Compile(fmt.Sprintf("hot%d.c", seed), src)
			if err != nil {
				t.Fatalf("compile failed:\n%s\nerror: %v", src, err)
			}
			live := pipeline.Source{Module: mod}
			for _, line := range loopLines(mod) {
				oopts := core.Options{OracleDispatch: true, MapShadow: true, Workers: 1, TileSize: 1}
				oregs, err := analyzeAll(context.Background(), live, line, oopts)
				if err != nil {
					t.Fatalf("line %d: legacy oracle failed: %v", line, err)
				}
				golden := renderHotRegions(oregs)
				for _, combo := range hotPathCombos {
					for _, workers := range workerAxis {
						for _, tile := range tileAxis {
							copts := core.Options{
								OracleDispatch: combo.oracle,
								MapShadow:      combo.mapShdw,
								Workers:        workers,
								TileSize:       tile,
							}
							regs, err := analyzeAll(context.Background(), live, line, copts)
							label := fmt.Sprintf("line %d %s workers=%d tile=%d", line, combo.name, workers, tile)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if !reflect.DeepEqual(regs, oregs) {
								t.Fatalf("%s: region reports diverge from the oracle\nprogram:\n%s", label, src)
							}
							if got := renderHotRegions(regs); got != golden {
								t.Fatalf("%s: rendered report text diverges from the oracle", label)
							}
						}
					}
				}
			}
		})
	}
}

// TestHotPathErrorTextParity pins the error surface: a budget exhausted by
// the interpreter must produce byte-identical error text under both
// dispatch engines, and a per-region analysis budget failure must produce
// byte-identical degradation under both shadow implementations.
func TestHotPathErrorTextParity(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", faultSrc)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("interp-step-limit", func(t *testing.T) {
		budget := core.Budget{MaxSteps: 100}
		var texts []string
		for _, oracle := range []bool{true, false} {
			_, err := analyzeAll(context.Background(), pipeline.Source{Module: mod, Budget: budget},
				faultInnerLine, core.Options{OracleDispatch: oracle})
			if err == nil {
				t.Fatalf("oracle=%v: step limit of %d not enforced", oracle, budget.MaxSteps)
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] {
			t.Fatalf("step-limit error text differs:\noracle: %s\nplan:   %s", texts[0], texts[1])
		}
	})

	t.Run("analysis-budget", func(t *testing.T) {
		budget := core.Budget{MaxAnalysisBytes: 256}
		var rendered []string
		for _, mapShdw := range []bool{true, false} {
			copts := core.Options{MapShadow: mapShdw, Workers: 1, Budget: budget}
			regs, err := analyzeAll(context.Background(), pipeline.Source{Module: mod}, faultInnerLine, copts)
			if err == nil {
				t.Fatalf("mapShadow=%v: %d-byte analysis budget not enforced", mapShdw, budget.MaxAnalysisBytes)
			}
			rendered = append(rendered, renderHotRegions(regs)+"\nsummary: "+err.Error())
		}
		if rendered[0] != rendered[1] {
			t.Fatalf("budget degradation differs between shadows:\nmap:\n%s\npaged:\n%s", rendered[0], rendered[1])
		}
	})
}

// TestHotPathCounterContract runs the fused live pipeline under fresh
// recorders for the all-new and all-legacy engines and checks (a) the
// shared RunStats counters — region lifecycle, graph size, analysis output,
// interpreter steps — are identical, and (b) the engine-specific counters
// diverge exactly as documented: interp_batched_events and
// shadow_pages_touched are positive on the new engines and zero on the
// legacy ones.
func TestHotPathCounterContract(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", faultSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(copts core.Options) *obs.Recorder {
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		if _, err := analyzeAll(ctx, pipeline.Source{Module: mod}, faultInnerLine, copts); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	newRec := run(core.Options{Workers: 2})
	oldRec := run(core.Options{OracleDispatch: true, MapShadow: true, Workers: 2})

	parity := append([]obs.Counter{obs.InterpSteps}, diffCounterParity...)
	for _, ctr := range parity {
		if n, o := newRec.Get(ctr), oldRec.Get(ctr); n != o {
			t.Errorf("counter %s: new engines %d, legacy %d", ctr.Name(), n, o)
		}
	}
	if got := newRec.Get(obs.InterpBatchedEvents); got == 0 {
		t.Error("plan dispatch delivered no batched events")
	}
	if got := oldRec.Get(obs.InterpBatchedEvents); got != 0 {
		t.Errorf("oracle dispatch recorded %d batched events, want 0", got)
	}
	if got := newRec.Get(obs.ShadowPagesTouched); got == 0 {
		t.Error("paged shadow touched no pages")
	}
	if got := oldRec.Get(obs.ShadowPagesTouched); got != 0 {
		t.Errorf("map shadow recorded %d touched pages, want 0", got)
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
