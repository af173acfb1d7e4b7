package interp_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
)

// diffPrograms is the differential corpus for plan-vs-oracle equivalence:
// each program leans on a different slice of the instruction set so the
// battery covers every plan opcode, both fused and unfused.
var diffPrograms = []struct {
	name string
	src  string
}{
	{"arith", `void main() {
  double a; double b; int i; int j;
  a = 1.5; b = 0.25; i = 7; j = 3;
  print(a + b); print(a - b); print(a * b); print(a / b);
  printi(i + j); printi(i - j); printi(i * j); printi(i / j); printi(i % j);
  print(0.0 - a); printi(0 - i); printi(!i); printi(!0);
}`},
	{"float32", `void main() {
  float a; float b;
  a = 1.0e8; b = a + 1.0;
  print(b - a); print(a * 3.0); print(b / 7.0); print(a - b);
}`},
	{"cmp_casts", `void main() {
  double d; int i;
  for (i = 0 - 2; i < 3; i++) {
    d = (double)i / 2.0;
    printi(i < 1); printi(i <= 1); printi(i > 1); printi(i >= 1);
    printi(i == 1); printi(i != 1);
    printi(d < 0.5); printi(d == 0.0);
    printi((int)d);
  }
}`},
	{"intrinsics", `void main() {
  double x;
  for (x = 0.5; x < 3.0; x = x + 0.5) {
    print(sqrt(x)); print(exp(0.0 - x)); print(fabs(0.0 - x));
    print(log(x)); print(sin(x)); print(cos(x));
  }
}`},
	{"arrays2d", `
double A[8][8];
double s;
void main() {
  int i; int j;
  for (i = 0; i < 8; i++) {
    for (j = 0; j < 8; j++) {
      A[i][j] = i * 1.0 + j * 0.5;
    }
  }
  s = 0.0;
  for (i = 1; i < 7; i++) {
    for (j = 1; j < 7; j++) {
      s = s + 0.25 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
    }
  }
  print(s);
}`},
	{"pointers", `
double A[16];
void main() {
  double *p; int i;
  p = A;
  for (i = 0; i < 16; i++) { *p = 1.0 + i; p = p + 1; }
  p = A + 15;
  for (i = 0; i < 16; i++) { print(*p); p = p - 1; }
}`},
	{"calls", `
double scale(double x, double k) { return x * k; }
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
void side() { print(123.0); }
void main() {
  print(scale(3.0, 0.5));
  printi(fib(12));
  side();
}`},
	{"early_return", `
double A[32];
double find(double want) {
  int i;
  for (i = 0; i < 32; i++) {
    if (A[i] == want) { return i * 1.0; }
  }
  return 0.0 - 1.0;
}
void main() {
  int i;
  for (i = 0; i < 32; i++) { A[i] = i * 2.0; }
  print(find(40.0)); print(find(41.0));
}`},
	{"listing1", kernels.Listing1(12).Source},
	{"gauss_seidel", kernels.GaussSeidel(12, 3).Source},
	{"pde_solver", kernels.PDESolver(10, 3).Source},
}

// execOnlySink records events through Exec alone — it deliberately does
// not implement BatchTracer, pinning the plan dispatcher's per-event path.
type execOnlySink struct {
	events []interp.Event
}

func (s *execOnlySink) Exec(id int32, addr int64) {
	s.events = append(s.events, interp.Event{ID: id, Addr: addr})
}

// runDispatch executes src under the given dispatcher and returns the
// result, the trace captured by sink (which may be batch-capable or not),
// and the error.
func runDispatch(t *testing.T, src string, oracle, loops bool, sink interp.Tracer) (*interp.Result, error) {
	t.Helper()
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return runEngine(interp.New(mod, interp.Config{CountLoopCycles: loops, Tracer: sink}), context.Background(), oracle)
}

// runEngine runs main on m through the reference switch loop (oracle) or
// the plan dispatcher.
func runEngine(m *interp.Machine, ctx context.Context, oracle bool) (*interp.Result, error) {
	if oracle {
		return m.RunOracle(ctx, "main")
	}
	return m.RunContext(ctx, "main")
}

// TestPlanOracleDifferential runs the corpus under all four dispatcher ×
// attribution combinations and demands deep-equal results and identical
// event sequences — covering at once: plan vs oracle, batched vs per-event
// delivery, and loop attribution parity.
func TestPlanOracleDifferential(t *testing.T) {
	for _, p := range diffPrograms {
		for _, loops := range []bool{false, true} {
			name := p.name
			if loops {
				name += "/loops"
			}
			t.Run(name, func(t *testing.T) {
				oSink := &interp.TraceSink{}
				oRes, oErr := runDispatch(t, p.src, true, loops, oSink)
				if oErr != nil {
					t.Fatalf("oracle: %v", oErr)
				}

				pSink := &interp.TraceSink{} // batched path (TraceSink is a BatchTracer)
				pRes, pErr := runDispatch(t, p.src, false, loops, pSink)
				if pErr != nil {
					t.Fatalf("plan: %v", pErr)
				}
				if !reflect.DeepEqual(oRes, pRes) {
					t.Errorf("plan result differs from oracle:\noracle: %+v\nplan:   %+v", oRes, pRes)
				}
				if !reflect.DeepEqual(oSink.Events, pSink.Events) {
					t.Errorf("batched plan trace differs from oracle (%d vs %d events)",
						len(pSink.Events), len(oSink.Events))
				}

				eSink := &execOnlySink{} // per-event path
				eRes, eErr := runDispatch(t, p.src, false, loops, eSink)
				if eErr != nil {
					t.Fatalf("plan per-event: %v", eErr)
				}
				if !reflect.DeepEqual(oRes, eRes) {
					t.Errorf("per-event plan result differs from oracle")
				}
				if !reflect.DeepEqual(oSink.Events, eSink.events) {
					t.Errorf("per-event plan trace differs from oracle (%d vs %d events)",
						len(eSink.events), len(oSink.Events))
				}
			})
		}
	}
}

// TestPlanStepLimitParity sweeps MaxSteps across a window that lands on
// every kind of plan entry — including the interior of fused
// superinstructions — and demands the exact oracle outcome at each limit:
// same success/failure and identical error text.
func TestPlanStepLimitParity(t *testing.T) {
	src := `
double A[4][4];
double f(double x) { return x * 2.0; }
void main() {
  int i; int j;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 4; j++) {
      A[i][j] = f(i * 1.0) + j;
    }
  }
  print(A[3][3]);
}`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	// Find the total step count first, then sweep past it.
	total, err := interp.New(mod, interp.Config{}).Run("main")
	if err != nil {
		t.Fatal(err)
	}
	for limit := int64(1); limit <= total.Steps+1; limit++ {
		_, oErr := interp.New(mod, interp.Config{MaxSteps: limit}).RunOracle(context.Background(), "main")
		_, pErr := interp.New(mod, interp.Config{MaxSteps: limit}).Run("main")
		if (oErr == nil) != (pErr == nil) {
			t.Fatalf("limit %d: oracle err %v, plan err %v", limit, oErr, pErr)
		}
		if oErr != nil {
			if oErr.Error() != pErr.Error() {
				t.Fatalf("limit %d: error text differs:\noracle: %v\nplan:   %v", limit, oErr, pErr)
			}
			if !errors.Is(pErr, core.ErrResourceLimit) {
				t.Fatalf("limit %d: plan error does not wrap ErrResourceLimit: %v", limit, pErr)
			}
		}
	}
}

// TestPlanCancelParity checks that a canceled context surfaces at the same
// polling boundary with the same error text under both dispatchers.
func TestPlanCancelParity(t *testing.T) {
	src := `void main() { int i; int s; s = 0; for (i = 0; i < 100000; i++) { s = s + i; } printi(s); }`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, oErr := interp.New(mod, interp.Config{}).RunOracle(ctx, "main")
	_, pErr := interp.New(mod, interp.Config{}).RunContext(ctx, "main")
	if oErr == nil || pErr == nil {
		t.Fatalf("want cancellation errors, got oracle %v, plan %v", oErr, pErr)
	}
	if oErr.Error() != pErr.Error() {
		t.Fatalf("cancel error text differs:\noracle: %v\nplan:   %v", oErr, pErr)
	}
	if !errors.Is(pErr, context.Canceled) {
		t.Fatalf("plan cancel error does not wrap context.Canceled: %v", pErr)
	}
}

// TestPlanRuntimeErrorParity pairs every runtime-failure program with both
// dispatchers and demands byte-identical error text.
func TestPlanRuntimeErrorParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		cfg  interp.Config
	}{
		{"div_zero", `void main() { int z; z = 0; printi(1 / z); }`, interp.Config{}},
		{"rem_zero", `void main() { int z; z = 0; printi(1 % z); }`, interp.Config{}},
		{"load_invalid", `
double A[4];
void main() { double *p; p = A; p = p - 100000; print(*p); }`, interp.Config{}},
		{"store_invalid", `
double A[4];
void main() { double *p; p = A; p = p - 100000; *p = 1.0; }`, interp.Config{}},
		{"store_invalid_indexed", `
double A[4];
void main() { int i; i = 0 - 100000; A[i] = 1.0; }`, interp.Config{}},
		{"load_invalid_indexed", `
double A[4];
void main() { int i; i = 0 - 100000; print(A[i]); }`, interp.Config{}},
		{"depth", `
int f(int n) { return f(n + 1); }
void main() { printi(f(0)); }`, interp.Config{MaxDepth: 50}},
		{"stack_overflow", `
double g(double x) { double B[512]; B[0] = x; return g(x + B[0]); }
void main() { print(g(1.0)); }`, interp.Config{StackSize: 1 << 16}},
		{"stack_overflow_grown", `
double g(double x) { double B[512]; B[0] = x; return g(x + B[0]); }
void main() { print(g(1.0)); }`, interp.Config{}},
		{"store_past_arena", `
double A[4];
void main() { double *p; p = A; p = p + 2000000; *p = 1.0; }`, interp.Config{}},
		{"load_past_arena_indexed", `
double A[4];
void main() { int i; i = 2000000; print(A[i]); }`, interp.Config{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := pipeline.Compile("t.c", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			_, oErr := interp.New(mod, tc.cfg).RunOracle(context.Background(), "main")
			_, pErr := interp.New(mod, tc.cfg).Run("main")
			if oErr == nil || pErr == nil {
				t.Fatalf("want runtime errors, got oracle %v, plan %v", oErr, pErr)
			}
			if oErr.Error() != pErr.Error() {
				t.Fatalf("error text differs:\noracle: %v\nplan:   %v", oErr, pErr)
			}
		})
	}
}

// TestArenaGrowsOnDemand: the arena starts at the globals plus a small
// stack and grows on demand, invisibly — recursion deeper than the initial
// stack, and accesses through pointers past its initial end but inside the
// full arena, behave as they would in an arena allocated at full size, on
// both dispatchers; and running out of the full arena fails with the
// unchanged text naming the configured size.
func TestArenaGrowsOnDemand(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []float64
	}{
		{"deep_recursion", `
double g(int n) { double B[64]; B[n % 64] = n; if (n == 0) { return 0.0; } return B[n % 64] + g(n - 1); }
void main() { print(g(2000)); }`, []float64{2001000}},
		{"pointer_past_initial_end", `
double A[4];
void main() { double *p; int i; p = A; p = p + 200000; print(*p); *p = 2.5; i = 200000; print(A[i]); }`, []float64{0, 2.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod, err := pipeline.Compile("t.c", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			oRes, oErr := interp.New(mod, interp.Config{}).RunOracle(context.Background(), "main")
			pRes, pErr := interp.New(mod, interp.Config{}).Run("main")
			if oErr != nil || pErr != nil {
				t.Fatalf("oracle %v, plan %v", oErr, pErr)
			}
			if !reflect.DeepEqual(oRes, pRes) || !reflect.DeepEqual(pRes.Output, tc.want) {
				t.Fatalf("output: oracle %v, plan %v, want %v", oRes.Output, pRes.Output, tc.want)
			}
		})
	}
	mod, err := pipeline.Compile("t.c", `
double g(double x) { double B[512]; B[0] = x; return g(x + B[0]); }
void main() { print(g(1.0)); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = interp.New(mod, interp.Config{}).Run("main")
	if err == nil || !strings.Contains(err.Error(), "exhausts the 8388608-byte arena") || !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("stack overflow error %v, want the 8388608-byte arena named as a resource limit", err)
	}
}

// TestPlanSharedAcrossMachines proves one precompiled Plan is safely shared
// by machines running concurrently, and that Config.Plan is honored.
func TestPlanSharedAcrossMachines(t *testing.T) {
	mod, err := pipeline.Compile("t.c", kernels.GaussSeidel(8, 2).Source)
	if err != nil {
		t.Fatal(err)
	}
	want, err := interp.New(mod, interp.Config{CountLoopCycles: true}).RunOracle(context.Background(), "main")
	if err != nil {
		t.Fatal(err)
	}
	plan := interp.CompilePlan(mod)
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			res, err := interp.New(mod, interp.Config{Plan: plan, CountLoopCycles: true}).Run("main")
			if err == nil && !reflect.DeepEqual(want, res) {
				err = fmt.Errorf("shared-plan result differs from oracle")
			}
			errc <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanBatchFlushOnError checks that a failing run still delivers the
// complete pre-error event prefix through the batched path.
func TestPlanBatchFlushOnError(t *testing.T) {
	src := `void main() { int i; int z; z = 0; for (i = 0; i < 100; i++) { printi(i); } printi(1 / z); }`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	oSink := &interp.TraceSink{}
	_, oErr := interp.New(mod, interp.Config{Tracer: oSink}).RunOracle(context.Background(), "main")
	pSink := &interp.TraceSink{}
	_, pErr := interp.New(mod, interp.Config{Tracer: pSink}).Run("main")
	if oErr == nil || pErr == nil || oErr.Error() != pErr.Error() {
		t.Fatalf("errors differ: oracle %v, plan %v", oErr, pErr)
	}
	if !reflect.DeepEqual(oSink.Events, pSink.Events) {
		t.Fatalf("pre-error trace differs: plan %d events, oracle %d events",
			len(pSink.Events), len(oSink.Events))
	}
}

// measureStepsPerSec runs the kernel once per iteration for roughly d and
// returns executed steps per second.
func measureStepsPerSec(tb testing.TB, oracle bool, d time.Duration) float64 {
	mod, err := pipeline.Compile("k.c", kernels.GaussSeidel(64, 8).Source)
	if err != nil {
		tb.Fatal(err)
	}
	var steps int64
	start := time.Now()
	for time.Since(start) < d {
		res, err := runEngine(interp.New(mod, interp.Config{}), context.Background(), oracle)
		if err != nil {
			tb.Fatal(err)
		}
		steps += res.Steps
	}
	return float64(steps) / time.Since(start).Seconds()
}

// TestPlanPerfSmoke is the gated regression floor on dispatch speed: plan
// dispatch must beat the reference switch loop (oracle_test.go) by a
// comfortable margin (the steady
// ratio is ~1.7–1.9× plain; the floor leaves room for CI noise). Enabled
// by VECTRACE_PERF_SMOKE=1.
func TestPlanPerfSmoke(t *testing.T) {
	if os.Getenv("VECTRACE_PERF_SMOKE") == "" {
		t.Skip("set VECTRACE_PERF_SMOKE=1 to run the dispatch-speed floor check")
	}
	const floor = 1.35
	best := 0.0
	for try := 0; try < 3 && best < floor; try++ {
		plan := measureStepsPerSec(t, false, 500*time.Millisecond)
		oracle := measureStepsPerSec(t, true, 500*time.Millisecond)
		r := plan / oracle
		t.Logf("try %d: plan %.1fM steps/s, oracle %.1fM steps/s, ratio %.2fx", try, plan/1e6, oracle/1e6, r)
		if r > best {
			best = r
		}
	}
	if best < floor {
		t.Fatalf("plan dispatch only %.2fx oracle, floor %.2fx", best, floor)
	}
}

func benchDispatch(b *testing.B, oracle, traced, loops bool) {
	mod, err := pipeline.Compile("k.c", kernels.GaussSeidel(64, 8).Source)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := interp.Config{CountLoopCycles: loops}
		if traced {
			cfg.Tracer = &interp.TraceSink{}
		}
		res, err := runEngine(interp.New(mod, cfg), context.Background(), oracle)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

func BenchmarkPlanPlain(b *testing.B)    { benchDispatch(b, false, false, false) }
func BenchmarkOraclePlain(b *testing.B)  { benchDispatch(b, true, false, false) }
func BenchmarkPlanTraced(b *testing.B)   { benchDispatch(b, false, true, false) }
func BenchmarkOracleTraced(b *testing.B) { benchDispatch(b, true, true, false) }
func BenchmarkPlanLoops(b *testing.B)    { benchDispatch(b, false, false, true) }
func BenchmarkOracleLoops(b *testing.B)  { benchDispatch(b, true, false, true) }
