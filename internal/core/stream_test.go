package core_test

// Kernel-level differential testing of the one-pass stream kernel: for
// random programs and every graph-option variant, feeding a region's events
// through AcquireStreamKernel/Feed/Finish must produce a Report
// byte-identical (reflect.DeepEqual) to materializing the region with
// ddg.BuildOpts and analyzing it with core.AnalyzeCtx, the paper-literal
// reference — including under reduction relaxation, where the kernel
// replays the region with the accumulator edges cut. The Analyze-level and
// streaming-region-level differentials live in internal/pipeline.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// genKernelProgram emits a random MiniC program mixing the shapes that
// stress the kernel: streaming statements, ±1-offset recurrences, scalar
// reductions, and conditional stores.
func genKernelProgram(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	n := 10 + rng.Intn(8)
	var b strings.Builder
	arrays := []string{"A", "B", "C"}
	for _, a := range arrays {
		fmt.Fprintf(&b, "double %s[%d];\n", a, n)
	}
	b.WriteString("double s;\n\nvoid main() {\n  int i;\n")
	fmt.Fprintf(&b, "  s = 0.25;\n  for (i = 0; i < %d; i++) {\n", n)
	for _, a := range arrays {
		fmt.Fprintf(&b, "    %s[i] = 0.5 + 0.125 * i;\n", a)
	}
	b.WriteString("  }\n")
	stmts := 2 + rng.Intn(6)
	for k := 0; k < stmts; k++ {
		fmt.Fprintf(&b, "  for (i = 1; i < %d; i++) {\n", n-1)
		dst := arrays[rng.Intn(len(arrays))]
		src := arrays[rng.Intn(len(arrays))]
		c := 0.1 + rng.Float64()
		switch rng.Intn(4) {
		case 0: // streaming
			fmt.Fprintf(&b, "    %s[i] = %s[i] * %.3f + %s[i - 1];\n", dst, src, c, src)
		case 1: // recurrence
			fmt.Fprintf(&b, "    %s[i] = %s[i - 1] * %.3f + %s[i];\n", dst, dst, c, src)
		case 2: // reduction
			fmt.Fprintf(&b, "    s = s + %s[i] * %.3f;\n", src, c)
		case 3: // conditional store
			fmt.Fprintf(&b, "    if (%s[i] > %.3f) { %s[i] = %s[i + 1] + %.3f; }\n", src, c, dst, src, c)
		}
		b.WriteString("  }\n")
	}
	b.WriteString("  print(s);\n")
	for _, a := range arrays {
		fmt.Fprintf(&b, "  print(%s[2]);\n", a)
	}
	b.WriteString("}\n")
	return b.String()
}

// streamTrace compiles and traces one generated program.
func streamTrace(t *testing.T, seed int64) (*trace.Trace, string) {
	t.Helper()
	src := genKernelProgram(seed)
	_, _, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("stream%d.c", seed), src)
	if err != nil {
		t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
	}
	return tr, src
}

// oneShot runs the whole trace through a pooled stream kernel.
func oneShot(t *testing.T, tr *trace.Trace, dopts ddg.Options, opts core.Options) (*core.Report, error) {
	t.Helper()
	k := core.AcquireStreamKernel(tr.Module, dopts, opts, nil)
	defer k.Release()
	for _, ev := range tr.Events {
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			return nil, err
		}
	}
	return k.Finish(context.Background())
}

// materialized is the reference: build the full graph, analyze it.
func materialized(t *testing.T, tr *trace.Trace, dopts ddg.Options, opts core.Options) (*core.Report, error) {
	t.Helper()
	g, err := ddg.BuildOpts(tr, dopts)
	if err != nil {
		t.Fatalf("ddg.BuildOpts: %v", err)
	}
	return core.AnalyzeCtx(context.Background(), g, opts)
}

var streamDoptsVariants = []struct {
	name  string
	dopts ddg.Options
}{
	{"flow", ddg.Options{}},
	{"anti-output", ddg.Options{IncludeAntiOutput: true}},
	{"control", ddg.Options{IncludeControl: true}},
	{"ints", ddg.Options{CharacterizeInts: true}},
	{"all", ddg.Options{IncludeAntiOutput: true, IncludeControl: true, CharacterizeInts: true}},
}

// TestStreamKernelMatchesMaterialized is the core differential: whole-trace
// reports from the one-pass kernel equal the materialized oracle across
// random programs and every graph-option variant. Kernels are reused from
// the pool across cases, so the test also exercises recycled tables.
func TestStreamKernelMatchesMaterialized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr, src := streamTrace(t, seed)
		for _, v := range streamDoptsVariants {
			want, wantErr := materialized(t, tr, v.dopts, core.Options{})
			got, gotErr := oneShot(t, tr, v.dopts, core.Options{})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %s: error mismatch: oracle %v, one-pass %v\n%s", seed, v.name, wantErr, gotErr, src)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: one-pass report differs from materialized oracle\ngot:  %+v\nwant: %+v\nprogram:\n%s",
					seed, v.name, got, want, src)
			}
		}
	}
}

// TestStreamKernelMatchesPerRegion feeds each dynamic region of the target
// loop separately — the shape the pipeline uses — and compares against
// building each region slice.
func TestStreamKernelMatchesPerRegion(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr, src := streamTrace(t, seed)
		for _, loop := range tr.Module.Loops {
			regions := tr.Regions(loop.ID)
			for ri, r := range regions {
				sub := tr.Slice(r)
				for _, v := range streamDoptsVariants {
					for _, relax := range []bool{false, true} {
						opts := core.Options{RelaxReductions: relax}
						want, wantErr := materialized(t, sub, v.dopts, opts)
						got, gotErr := oneShot(t, sub, v.dopts, opts)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("seed %d loop %d region %d %s relax=%v: error mismatch: %v vs %v",
								seed, loop.ID, ri, v.name, relax, wantErr, gotErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d loop %d region %d %s relax=%v: report differs\ngot:  %+v\nwant: %+v\nprogram:\n%s",
								seed, loop.ID, ri, v.name, relax, got, want, src)
						}
					}
				}
			}
		}
	}
}

// TestStreamKernelReductionFlag pins the online reduction detector against
// the graph-based detector on the canonical reduction kernel shapes that
// genKernelProgram emits, plus a loop with no reduction at all. (The flag is
// part of the DeepEqual above; this is the focused failure message.)
func TestStreamKernelReductionFlag(t *testing.T) {
	src := `double A[32];
double s;

void main() {
  int i;
  s = 0.0;
  for (i = 0; i < 32; i++) { A[i] = 0.5 + 0.25 * i; }
  for (i = 0; i < 32; i++) { s = s + A[i] * 0.5; }
  print(s);
}
`
	_, _, tr, err := pipeline.CompileAndTrace("red.c", src)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	want, _ := materialized(t, tr, ddg.Options{}, core.Options{})
	got, err := oneShot(t, tr, ddg.Options{}, core.Options{})
	if err != nil {
		t.Fatalf("one-pass: %v", err)
	}
	var wantRed, gotRed int
	for _, r := range want.PerInstr {
		if r.IsReduction {
			wantRed++
		}
	}
	for _, r := range got.PerInstr {
		if r.IsReduction {
			gotRed++
		}
	}
	if wantRed == 0 {
		t.Fatalf("oracle found no reduction in the reduction kernel:\n%+v", want.PerInstr)
	}
	if gotRed != wantRed {
		t.Fatalf("one-pass reductions = %d, oracle = %d", gotRed, wantRed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reduction kernel report differs\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestStreamKernelBudget: a budget tight enough to trip mid-feed degrades
// the region with an ErrResourceLimit-wrapped error, latched across
// subsequent Feed and Finish calls; the failure point is deterministic
// (pool warmth cannot move it).
func TestStreamKernelBudget(t *testing.T) {
	tr, _ := streamTrace(t, 1)
	opts := core.Options{Budget: core.Budget{MaxAnalysisBytes: 512}}

	feedAll := func() (int, error) {
		k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, opts, nil)
		defer k.Release()
		for i, ev := range tr.Events {
			if err := k.Feed(ev.ID, ev.Addr); err != nil {
				if _, ferr := k.Finish(context.Background()); ferr == nil || ferr.Error() != err.Error() {
					t.Fatalf("Finish after failed Feed: got %v, want latched %v", ferr, err)
				}
				return i, err
			}
		}
		_, err := k.Finish(context.Background())
		return len(tr.Events), err
	}

	at1, err1 := feedAll()
	if err1 == nil {
		t.Fatalf("512-byte budget not exceeded over %d events", len(tr.Events))
	}
	if !errors.Is(err1, core.ErrResourceLimit) {
		t.Fatalf("budget error %v does not wrap ErrResourceLimit", err1)
	}
	// A second, pool-warmed run must fail at the same event with the same text.
	at2, err2 := feedAll()
	if at1 != at2 || err1.Error() != err2.Error() {
		t.Fatalf("budget failure moved: event %d (%v) vs event %d (%v)", at1, err1, at2, err2)
	}
}

// TestStreamKernelBudgetPinned pins, on Listing 1, the event at which a
// budget trips and the kernel's peak working set to the values the kernel
// had while every row was as wide as the active column count. Charges
// follow row checkouts, not row widths, so narrow rows must not move them.
func TestStreamKernelBudgetPinned(t *testing.T) {
	k := kernels.Listing1(24)
	_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	all := ddg.Options{IncludeAntiOutput: true, IncludeControl: true, CharacterizeInts: true}
	for _, c := range []struct {
		name   string
		dopts  ddg.Options
		budget int64
		failAt int // -1: the region completes
		peak   int64
	}{
		{"flow/unbounded", ddg.Options{}, 0, -1, 120744},
		{"flow/8KiB", ddg.Options{}, 8192, 194, 8296},
		{"flow/32KiB", ddg.Options{}, 32768, 4022, 32808},
		{"all/unbounded", all, 0, -1, 242416},
		{"all/8KiB", all, 8192, 74, 8344},
		{"all/32KiB", all, 32768, 1635, 32776},
	} {
		t.Run(c.name, func(t *testing.T) {
			kk := core.AcquireStreamKernel(tr.Module, c.dopts, core.Options{Budget: core.Budget{MaxAnalysisBytes: c.budget}}, nil)
			defer kk.Release()
			at := -1
			for i, ev := range tr.Events {
				if err := kk.Feed(ev.ID, ev.Addr); err != nil {
					if !errors.Is(err, core.ErrResourceLimit) {
						t.Fatalf("event %d: %v", i, err)
					}
					at = i
					break
				}
			}
			if at < 0 {
				if _, err := kk.Finish(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if at != c.failAt || kk.PeakLiveBytes() != c.peak {
				t.Fatalf("failed at event %d with peak %d bytes, want event %d with peak %d",
					at, kk.PeakLiveBytes(), c.failAt, c.peak)
			}
		})
	}
}

// TestRowMaxIntoWidth pins rowMaxInto's width contract: the result is as
// wide as the widest source row, capped at w, and missing columns read as
// zero; with no sources it is empty.
func TestRowMaxIntoWidth(t *testing.T) {
	for _, c := range []struct {
		name string
		w    int
		rows [][]int32
		want []int32
	}{
		{"none", 4, nil, []int32{}},
		{"one empty", 4, [][]int32{{}}, []int32{}},
		{"one", 4, [][]int32{{3, 1}}, []int32{3, 1}},
		{"one capped", 2, [][]int32{{3, 1, 4}}, []int32{3, 1}},
		{"two, second wider", 4, [][]int32{{5}, {1, 2, 3}}, []int32{5, 2, 3}},
		{"two, first wider", 4, [][]int32{{1, 2, 3}, {5}}, []int32{5, 2, 3}},
		{"two capped", 2, [][]int32{{1, 7, 3}, {5}}, []int32{5, 7}},
		{"three", 5, [][]int32{{1}, {0, 4}, {2, 1, 6}}, []int32{2, 4, 6}},
		{"three capped", 1, [][]int32{{1}, {0, 4}, {2, 1, 6}}, []int32{2}},
		{"three empty", 5, [][]int32{{}, {}, {}}, []int32{}},
	} {
		got := core.RowMaxInto(make([]int32, 0, 8), c.w, c.rows)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: rowMaxInto(w=%d, %v) = %v, want %v", c.name, c.w, c.rows, got, c.want)
		}
	}
	// dst may alias a source row, wider or narrower than the result.
	a := append(make([]int32, 0, 8), 1, 9)
	if got := core.RowMaxInto(a, 4, [][]int32{a, {4, 2, 7}}); !reflect.DeepEqual(got, []int32{4, 9, 7}) {
		t.Errorf("aliasing the narrower source: got %v, want [4 9 7]", got)
	}
	b := append(make([]int32, 0, 8), 1, 9, 3)
	if got := core.RowMaxInto(b, 4, [][]int32{{4}, b}); !reflect.DeepEqual(got, []int32{4, 9, 3}) {
		t.Errorf("aliasing the wider source: got %v, want [4 9 3]", got)
	}
}

// TestExtendRowZeroFills pins the candidate extension: a row narrower than
// col+1 grows to exactly col+1 with zeros in the new columns, whatever its
// buffer held before; a row already wide enough is left alone.
func TestExtendRowZeroFills(t *testing.T) {
	buf := []int32{7, 8, 9, 9, 9, 9}
	got := core.ExtendRow(buf[:2], 4)
	if !reflect.DeepEqual(got, []int32{7, 8, 0, 0, 0}) {
		t.Fatalf("ExtendRow([7 8], 4) = %v, want [7 8 0 0 0]", got)
	}
	got = core.ExtendRow(buf[:0], 0)
	if !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("ExtendRow([], 0) = %v, want [0]", got)
	}
	row := []int32{1, 2, 3}
	if got := core.ExtendRow(row, 1); !reflect.DeepEqual(got, []int32{1, 2, 3}) {
		t.Fatalf("ExtendRow([1 2 3], 1) = %v, want it unchanged", got)
	}
}

// TestStreamKernelCancel mirrors AnalyzeCtx's contract: a canceled context
// surfaces from Finish wrapping both core.ErrCanceled and the context cause
// — except for candidate-free regions, which succeed before the check, on
// both paths.
func TestStreamKernelCancel(t *testing.T) {
	tr, _ := streamTrace(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatalf("ddg.Build: %v", err)
	}
	_, wantErr := core.AnalyzeCtx(ctx, g, core.Options{})

	k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, core.Options{}, nil)
	defer k.Release()
	for _, ev := range tr.Events {
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	_, gotErr := k.Finish(ctx)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("cancel parity: oracle %v, one-pass %v", wantErr, gotErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, core.ErrCanceled) || !errors.Is(gotErr, context.Canceled) {
			t.Fatalf("cancel error %v should wrap ErrCanceled and context.Canceled", gotErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("cancel error text differs: %q vs %q", gotErr, wantErr)
		}
	}
}

// TestFusedMatchesOracleRandomPrograms checks the fused one-pass kernel
// (events in, report out, no graph) against the per-candidate reference on
// random programs: both reduction modes, the reference at worker counts
// {1, 4, GOMAXPROCS}.
func TestFusedMatchesOracleRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, src := streamTrace(t, seed)
			g, err := ddg.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, relax := range []bool{false, true} {
				got, err := oneShot(t, tr, ddg.Options{}, core.Options{RelaxReductions: relax})
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
					want := core.Analyze(g, core.Options{Workers: w, RelaxReductions: relax})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("relax=%v reference workers=%d: kernel report differs\nprogram:\n%s\nreference: %+v\nkernel:    %+v",
							relax, w, src, want, got)
					}
				}
			}
		})
	}
}

// TestFusedReductionRelaxationRegression pins the §4.1 reduction extension
// on a dot-product kernel: the kernel's relaxed report must equal the
// reference's, the reduction must be detected, and relaxation must turn
// the serial chain into vectorizable work.
func TestFusedReductionRelaxationRegression(t *testing.T) {
	_, _, tr, err := pipeline.CompileAndTrace("dot.c", dotProductSrc)
	if err != nil {
		t.Fatal(err)
	}
	reports := map[bool]*core.Report{}
	for _, relax := range []bool{false, true} {
		opts := core.Options{RelaxReductions: relax}
		want, err := materialized(t, tr, ddg.Options{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := oneShot(t, tr, ddg.Options{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("relax=%v: kernel differs from reference\ngot:  %+v\nwant: %+v", relax, got, want)
		}
		reports[relax] = got
	}
	base, relaxed := reports[false], reports[true]
	foundReduction := false
	for _, ir := range base.PerInstr {
		if ir.IsReduction {
			foundReduction = true
		}
	}
	if !foundReduction {
		t.Fatal("kernel lost the reduction flag")
	}
	if relaxed.UnitVecOpsPct <= base.UnitVecOpsPct {
		t.Fatalf("relaxation did not increase unit-stride potential: %.1f%% -> %.1f%%",
			base.UnitVecOpsPct, relaxed.UnitVecOpsPct)
	}
}

// dotProductSrc accumulates a dot product through s += a[i]*b[i], the
// store/load round-trip reduction shape.
const dotProductSrc = `
double a[64]; double b[64]; double s;
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; b[i] = 0.25 * i; }
  for (i = 0; i < 64; i++) { s = s + a[i] * b[i]; }
  print(s);
}`

// TestStreamRelaxCancel: a context canceled during the relaxation replay
// fails the region with the cancellation sentinels, not a partial report.
func TestStreamRelaxCancel(t *testing.T) {
	_, _, tr, err := pipeline.CompileAndTrace("dot.c", dotProductSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, core.Options{RelaxReductions: true}, nil)
	defer k.Release()
	for _, ev := range tr.Events {
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	rep, err := k.Finish(ctx)
	if rep != nil || !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish on a canceled context: report %v, err %v", rep, err)
	}
}

// TestPagedShadowAllocsBeatMap is the VECTRACE_MEM_SMOKE gate on the paged
// shadow memory: one kernel analyzing the same region over and over, the
// paged table (whose pages are epoch-reset and kept across regions) must
// not allocate more bytes per region than the plain map shadow. A change that quietly loses the page freelist or re-zeroes pages
// per region shows up here as an allocation regression.
func TestPagedShadowAllocsBeatMap(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	// One region whose events are dominated by an integer repetition loop
	// storing to a scalar, plus a short FP recurrence over a[].
	_, _, tr, err := pipeline.CompileAndTrace("smoke.c", `
double a[8];
int junk;
void main() {
  int t; int r; int i;
  for (t = 0; t < 1; t++) {
    for (r = 0; r < 16000; r++) { junk = junk + r; }
    for (i = 1; i < 8; i++) { a[i] = a[i-1] * 0.5 + 0.25; }
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(mapShadow bool) float64 {
		k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, core.Options{Workers: 1}, nil)
		defer k.Release()
		region := func(tb testing.TB) {
			if mapShadow {
				k.UseMapShadow()
			}
			for _, ev := range tr.Events {
				if err := k.Feed(ev.ID, ev.Addr); err != nil {
					tb.Fatal(err)
				}
			}
			if _, err := k.Finish(context.Background()); err != nil {
				tb.Fatal(err)
			}
			k.ResetRegion()
		}
		region(t) // warm the kernel's tables before measuring
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				region(b)
			}
		})
		return float64(res.AllocedBytesPerOp())
	}
	paged := measure(false)
	mapped := measure(true)
	t.Logf("alloc B/op: paged %.0f, map %.0f (%.2f×)", paged, mapped, paged/max(mapped, 1))
	// 10% headroom absorbs benchmark jitter; the expected steady state is
	// paged ≤ map (pages are pooled, map buckets are not).
	if paged > 1.1*mapped {
		t.Fatalf("paged shadow allocates %.2f× the map shadow (%.0f vs %.0f B/op) — page pooling regressed",
			paged/mapped, paged, mapped)
	}
}
