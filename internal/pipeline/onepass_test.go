package pipeline_test

// Differential and resource-behavior tests of the one-pass ingest→analyze
// path against the materialized-graph reference (ddg.BuildOpts +
// core.AnalyzeCtx per region), through Analyze over in-memory slices and
// decoder-fed streams — byte-identical to the reference for every worker
// count. TestAnalyzeSourcesAgree adds the live source.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// TestOnePassMatchesMaterializedOracle: for random programs, every loop,
// and worker counts {1, 3, 8}, the one-pass route must equal the
// materialized graph reference report-for-report, in memory and streaming.
func TestOnePassMatchesMaterializedOracle(t *testing.T) {
	workerCounts := []int{1, 3, 8}
	for seed := int64(0); seed < 8; seed++ {
		src := generateProgram(seed)
		mod, _, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("op%d.c", seed), src)
		if err != nil {
			t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
		}
		encoded := encodeTrace(t, tr)
		for _, lm := range mod.Loops {
			want := referenceRegions(t, tr, lm.Line, ddg.Options{}, core.Options{})
			for _, w := range workerCounts {
				onePass := core.Options{Workers: w}
				got, err := analyzeAll(context.Background(), sliceSource(tr), lm.Line, onePass)
				if err != nil {
					t.Fatalf("seed %d loop %d: in-memory one-pass: %v", seed, lm.Line, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d loop %d workers %d: in-memory one-pass differs from the materialized reference\nprogram:\n%s",
						seed, lm.Line, w, src)
				}

				dec := trace.NewDecoder(bytes.NewReader(encoded))
				sgot, err := analyzeAll(context.Background(), pipeline.Source{Module: mod, Events: dec}, lm.Line, onePass)
				if err != nil {
					t.Fatalf("seed %d loop %d: streaming one-pass: %v", seed, lm.Line, err)
				}
				if !reflect.DeepEqual(sgot, want) {
					t.Fatalf("seed %d loop %d workers %d: streaming one-pass differs from the materialized reference",
						seed, lm.Line, w)
				}
			}
		}
	}
}

// budgetDemoKernel: one dynamic region of the analyzed loop (line 5) whose
// event count is dominated by an integer repetition loop — the region is
// long (≈events × reps) while its candidate instances and live addresses
// stay constant. The shape the one-pass path is built for.
func budgetDemoKernel(reps int) string {
	return fmt.Sprintf(`
double a[8];
int junk;
void main() {
  int t; int r; int i;
  for (t = 0; t < 1; t++) {
    for (r = 0; r < %d; r++) { junk = junk + r; }
    for (i = 1; i < 8; i++) { a[i] = a[i-1] * 0.5 + 0.25; }
  }
}
`, reps)
}

const budgetDemoLoopLine = 6

// TestOnePassFitsWhereMaterializedExceedsBudget is the headline memory
// property: a region long enough that the graph reference's O(events)
// analysis footprint exceeds core.Budget.MaxAnalysisBytes succeeds on the
// one-pass path, whose working set scales with live addresses × candidate
// instances instead of region length.
func TestOnePassFitsWhereMaterializedExceedsBudget(t *testing.T) {
	_, _, tr, err := pipeline.CompileAndTrace("budget.c", budgetDemoKernel(12000))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 100000 {
		t.Fatalf("region too short to make the point: %d events", len(tr.Events))
	}
	budget := core.Budget{MaxAnalysisBytes: 256 << 10}

	region := tr.Regions(tr.Module.LoopByLine(budgetDemoLoopLine).ID)[0]
	g, err := ddg.Build(tr.Slice(region))
	if err != nil {
		t.Fatal(err)
	}
	_, matErr := core.AnalyzeCtx(context.Background(), g, core.Options{Workers: 1, Budget: budget})
	if !errors.Is(matErr, core.ErrResourceLimit) {
		t.Fatalf("materialized path should exceed the %d-byte budget on a %d-event region, got %v",
			budget.MaxAnalysisBytes, len(tr.Events), matErr)
	}

	onePass := core.Options{Workers: 1, Budget: budget}
	regs, opErr := analyzeAll(context.Background(), sliceSource(tr), budgetDemoLoopLine, onePass)
	if opErr != nil {
		t.Fatalf("one-pass path should fit in the same budget: %v", opErr)
	}
	if len(regs) != 1 || regs[0].Report == nil {
		t.Fatalf("one-pass path returned no report: %+v", regs)
	}
}

// TestOnePassBudgetDegradesRegionOnly (streaming): a budget tight enough to
// trip mid-feed on the long region degrades that region only — the error
// wraps core.ErrResourceLimit under the "pipeline: region N" prefix, the
// short regions still succeed, Elapsed is populated on every placed report
// (failed ones included), and the failure is visible to the recorder the
// same way any region failure is (the stderr summary's inputs).
func TestOnePassBudgetDegradesRegionOnly(t *testing.T) {
	// The analyzed r-loop is entered three times: short, long, short. The
	// long entry sweeps 8192 distinct addresses, so the kernel's live
	// working set — not the event count — is what breaks the budget,
	// mid-feed.
	src := `
double a[8];
int big[8192];
void main() {
  int t; int r; int n;
  for (t = 0; t < 3; t++) {
    n = 8;
    if (t == 1) { n = 8192; }
    for (r = 0; r < n; r++) { big[r] = big[r] + r; a[1] = a[1] * 0.5; }
  }
}
`
	mod, _, tr, err := pipeline.CompileAndTrace("degrade.c", src)
	if err != nil {
		t.Fatal(err)
	}
	const loopLine = 9
	encoded := encodeTrace(t, tr)
	copts := core.Options{Workers: 2, Budget: core.Budget{MaxAnalysisBytes: 64 << 10}}

	rec := obs.New()
	ctx := obs.WithRecorder(t.Context(), rec)
	dec := trace.NewDecoder(bytes.NewReader(encoded))
	regs, err := analyzeAll(ctx, pipeline.Source{Module: mod, Events: dec}, loopLine, copts)
	if err == nil {
		t.Fatalf("expected the long region to exceed the budget")
	}
	if !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("summary error %v does not wrap ErrResourceLimit", err)
	}
	if len(regs) != 3 {
		t.Fatalf("got %d regions, want 3", len(regs))
	}
	var failed int
	for i, rr := range regs {
		if rr.Elapsed == 0 {
			t.Fatalf("region %d: Elapsed not populated under a recorder (failed and succeeded regions alike)", i)
		}
		if rr.Err != nil {
			failed++
			if !errors.Is(rr.Err, core.ErrResourceLimit) {
				t.Fatalf("region %d error %v does not wrap ErrResourceLimit", i, rr.Err)
			}
			if want := fmt.Sprintf("pipeline: region %d: ", i); !strings.HasPrefix(rr.Err.Error(), want) {
				t.Fatalf("region %d error %q lacks prefix %q", i, rr.Err, want)
			}
		} else if rr.Report == nil {
			t.Fatalf("region %d: no report and no error", i)
		}
	}
	if failed != 1 {
		t.Fatalf("%d regions failed, want exactly the long one", failed)
	}
	// Lifecycle balance feeds the CLI's failed-region summary.
	started, completed, recFailed := rec.Get(obs.RegionsStarted), rec.Get(obs.RegionsCompleted), rec.Get(obs.RegionsFailed)
	if started != 3 || completed != 2 || recFailed != 1 {
		t.Fatalf("lifecycle counters started=%d completed=%d failed=%d, want 3/2/1", started, completed, recFailed)
	}
	// The in-memory one-pass route degrades identically (same region, same cause).
	mregs, merr := analyzeAll(context.Background(), sliceSource(tr), loopLine, copts)
	if !errors.Is(merr, core.ErrResourceLimit) || len(mregs) != 3 {
		t.Fatalf("in-memory one-pass: err %v over %d regions", merr, len(mregs))
	}
	for i := range regs {
		if (regs[i].Err == nil) != (mregs[i].Err == nil) {
			t.Fatalf("region %d: streaming err %v, in-memory err %v", i, regs[i].Err, mregs[i].Err)
		}
		if regs[i].Err != nil && regs[i].Err.Error() != mregs[i].Err.Error() {
			t.Fatalf("region %d: error text differs:\n%q\n%q", i, regs[i].Err, mregs[i].Err)
		}
	}
}

// TestOnePassPoolAndFootprintCounters: across a multi-region observed run the
// kernel pool must actually recycle (hits > 0 once more regions than workers
// have run) and the footprint gauges must register the live working set.
func TestOnePassPoolAndFootprintCounters(t *testing.T) {
	_, _, tr, err := pipeline.CompileAndTrace("pool.c", repeatedKernel(8))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ctx := obs.WithRecorder(t.Context(), rec)
	if _, err := analyzeAll(ctx, sliceSource(tr), repeatedKernelLoopLine, core.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	hits, misses := rec.Get(obs.StreamPoolHits), rec.Get(obs.StreamPoolMisses)
	if hits+misses != 8 {
		t.Fatalf("pool hits %d + misses %d != 8 regions", hits, misses)
	}
	if hits == 0 {
		t.Fatalf("8 regions over 2 workers produced no pool hits (misses=%d)", misses)
	}
	if rec.Get(obs.ShadowPeakLiveAddresses) == 0 {
		t.Fatal("ShadowPeakLiveAddresses stayed zero over a store-heavy kernel")
	}
	if rec.Get(obs.AnalysisFootprintBytes) == 0 {
		t.Fatal("AnalysisFootprintBytes stayed zero on the one-pass path")
	}
}

// TestOnePassPeakMemoryVsMaterialized is the acceptance bar for the
// one-pass path: on a single 64-candidate region the one-pass route's peak
// live heap must be at least 4× below that of materializing the region —
// holding its events, building its graph, and running the reference on it
// (in practice the gap is about 8×; the assertion leaves headroom for
// sampler noise).
func TestOnePassPeakMemoryVsMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-sampling test")
	}
	var sb strings.Builder
	sb.WriteString("double a[1024];\ndouble b[1024];\nvoid main() {\n  int i;\n  for (i = 1; i < 1024; i++) {\n")
	// 16 statements × 4 FP multiply-adds each = 64 candidate sites.
	for s := 0; s < 16; s++ {
		fmt.Fprintf(&sb, "    a[i] = ((a[i-1] * 0.5 + b[i] * 1.5) * 0.25 + a[i] * 0.125) + %d.0;\n", s)
	}
	sb.WriteString("  }\n}\n")
	_, _, tr, err := pipeline.CompileAndTrace("wide.c", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	const loopLine = 5
	copts := core.Options{Workers: 1}
	stream := func() {
		if _, err := analyzeAll(context.Background(), sliceSource(tr), loopLine, copts); err != nil {
			t.Error(err)
		}
	}
	materialize := func() {
		// Materializing a streamed region means holding its events, as a
		// region sink must, before the graph can be built.
		region := tr.Regions(tr.Module.LoopByLine(loopLine).ID)[0]
		var held []trace.Event
		for _, ev := range tr.RegionEvents(region) {
			held = append(held, ev)
		}
		g, err := ddg.Build(&trace.Trace{Module: tr.Module, Events: held})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.AnalyzeCtx(context.Background(), g, copts); err != nil {
			t.Error(err)
		}
	}
	// Warm both routes once so pools and lazily-built tables don't skew the
	// measured run, then measure.
	peakLiveBytes(stream)
	peakLiveBytes(materialize)
	onePass := peakLiveBytes(stream)
	materializedPeak := peakLiveBytes(materialize)
	t.Logf("events=%d one-pass peak=%d materialized peak=%d ratio=%.1f",
		len(tr.Events), onePass, materializedPeak, float64(materializedPeak)/float64(onePass))
	if onePass == 0 {
		onePass = 1
	}
	if materializedPeak < 4*onePass {
		t.Fatalf("one-pass peak %d not ≥4× below materialized peak %d (%d events)",
			onePass, materializedPeak, len(tr.Events))
	}
}

// TestOnePassAllocsSubLinearInRegionLength is the memory-regression smoke
// the CI job runs (VECTRACE_MEM_SMOKE=1): with the region's candidate work
// fixed and its event count grown 8× via an integer repetition loop, the
// streaming one-pass path's allocated bytes per analysis must grow
// sub-linearly (< 4×). A rewrite that quietly re-materializes the region
// fails this immediately — its allocations track region length.
func TestOnePassAllocsSubLinearInRegionLength(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	measure := func(reps int) float64 {
		mod, err := pipeline.Compile("smoke.c", budgetDemoKernel(reps))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := pipeline.Record(context.Background(), mod, &buf, core.Budget{}, trace.FormatVTR1, trace.ContainerOptions{}); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := trace.NewDecoder(bytes.NewReader(encoded))
				if _, err := analyzeAll(context.Background(), pipeline.Source{Module: mod, Events: dec}, budgetDemoLoopLine, core.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.AllocedBytesPerOp())
	}
	small := measure(4000)
	large := measure(32000)
	t.Logf("alloc B/op: reps=4000 %.0f, reps=32000 %.0f (8× events, %.2f× bytes)", small, large, large/small)
	if small <= 0 {
		small = 1
	}
	if large >= 4*small {
		t.Fatalf("allocated bytes grew %.2f× for 8× region length — one-pass path is no longer O(live set): %.0f vs %.0f B/op",
			large/small, large, small)
	}
}
