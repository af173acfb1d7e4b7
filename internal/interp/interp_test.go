package interp_test

import (
	"context"
	"github.com/example/vectrace/internal/core"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/pipeline"
)

// run compiles and executes a MiniC program, returning its print output.
func run(t *testing.T, src string) []float64 {
	t.Helper()
	res := runRes(t, src)
	return res.Output
}

func runRes(t *testing.T, src string) *interp.Result {
	t.Helper()
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func runErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = pipeline.Run(context.Background(), mod, false, core.Budget{})
	if err == nil {
		t.Fatalf("expected runtime error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

func expect(t *testing.T, src string, want ...float64) {
	t.Helper()
	got := run(t, src)
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("output %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestArithmetic(t *testing.T) {
	expect(t, `void main() {
  printi(7 + 3); printi(7 - 3); printi(7 * 3); printi(7 / 3); printi(7 % 3);
  printi(-7 / 3); printi(-7 % 3);
  print(1.5 + 0.25); print(1.5 - 0.25); print(1.5 * 0.25); print(1.5 / 0.25);
}`, 10, 4, 21, 2, 1, -2, -1, 1.75, 1.25, 0.375, 6)
}

func TestComparisonsAndLogic(t *testing.T) {
	expect(t, `void main() {
  printi(3 < 4); printi(4 < 3); printi(3 <= 3); printi(3 >= 4);
  printi(3 == 3); printi(3 != 3);
  printi(1 && 1); printi(1 && 0); printi(0 || 1); printi(0 || 0);
  printi(!0); printi(!5);
  print(0.0 - 1.0);
  printi(1.5 < 2.5); printi(2.5 == 2.5);
}`, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, -1, 1, 1)
}

func TestShortCircuitSideEffects(t *testing.T) {
	// The right side of && must not evaluate when the left is false; we
	// observe this via division by zero that would otherwise trap.
	expect(t, `void main() {
  int zero;
  zero = 0;
  if (zero != 0 && 10 / zero > 1) { printi(1); } else { printi(2); }
  if (zero == 0 || 10 / zero > 1) { printi(3); } else { printi(4); }
}`, 2, 3)
}

func TestControlFlow(t *testing.T) {
	expect(t, `void main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 10; i++) {
    if (i == 3) { continue; }
    if (i == 7) { break; }
    s = s + i;
  }
  printi(s);
  while (s > 10) { s = s - 10; }
  printi(s);
}`, 0+1+2+4+5+6, 8)
}

func TestNestedLoops(t *testing.T) {
	expect(t, `void main() {
  int i; int j; int n;
  n = 0;
  for (i = 0; i < 4; i++) {
    for (j = 0; j <= i; j++) {
      n++;
    }
  }
  printi(n);
}`, 10)
}

func TestFunctionsAndRecursion(t *testing.T) {
	expect(t, `
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
double scale(double x, double f) { return x * f; }
void main() {
  printi(fib(10));
  print(scale(3.0, 0.5));
}`, 55, 1.5)
}

func TestGlobalInitialValues(t *testing.T) {
	expect(t, `
double d = 2.5;
int n = -3;
float f = 1.5;
double zero;
void main() {
  print(d); printi(n); print(f); print(zero);
}`, 2.5, -3, 1.5, 0)
}

func TestArrays(t *testing.T) {
	expect(t, `
double A[3][4];
void main() {
  int i; int j;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 4; j++) {
      A[i][j] = i * 10 + j;
    }
  }
  print(A[0][0]); print(A[2][3]); print(A[1][2]);
}`, 0, 23, 12)
}

func TestPointers(t *testing.T) {
	expect(t, `
double A[5];
void main() {
  double *p;
  int i;
  p = A;
  for (i = 0; i < 5; i++) {
    *p = 1.0 + i;
    p = p + 1;
  }
  p = A + 4;
  print(*p);
  p = p - 3;
  print(*p);
  print(p[2]);
  print(*(&A[0]));
}`, 5, 2, 4, 1)
}

func TestStructs(t *testing.T) {
	expect(t, `
struct complex { double r; double i; };
struct su3 { struct complex e[2][2]; };
struct su3 m;
struct complex cs[3];
void main() {
  struct complex *p;
  m.e[1][0].r = 4.5;
  m.e[1][0].i = -1.0;
  cs[2].r = 7.0;
  p = &cs[2];
  print(m.e[1][0].r + m.e[1][0].i);
  print(p->r);
  p->i = 0.5;
  print(cs[2].i);
}`, 3.5, 7, 0.5)
}

func TestFloatTruncation(t *testing.T) {
	// float (f32) storage truncates to single precision.
	out := run(t, `
float f;
void main() {
  f = 0.1;
  print(f);
}`)
	want := float64(float32(0.1))
	if out[0] != want {
		t.Fatalf("f32 store/load = %v, want %v", out[0], want)
	}
}

func TestFloat32Arithmetic(t *testing.T) {
	out := run(t, `
void main() {
  float a;
  float b;
  a = 1.0e8;
  b = a + 1.0;
  print(b - a);
}`)
	// In float32, 1e8 + 1 == 1e8.
	if out[0] != 0 {
		t.Fatalf("f32 arithmetic not single precision: %v", out[0])
	}
}

func TestCasts(t *testing.T) {
	expect(t, `void main() {
  double d;
  int i;
  d = 3.9;
  i = (int)d;
  printi(i);
  i = (int)(0.0 - 3.9);
  printi(i);
  d = (double)7 / (double)2;
  print(d);
}`, 3, -3, 3.5)
}

func TestIntrinsics(t *testing.T) {
	out := run(t, `void main() {
  print(sqrt(16.0));
  print(exp(0.0));
  print(fabs(0.0 - 2.5));
  print(log(1.0));
  print(sin(0.0));
  print(cos(0.0));
}`)
	want := []float64{4, 1, 2.5, 0, 0, 1}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("intrinsic %d = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	runErr(t, "void main() { int z; z = 0; printi(1 / z); }", "division by zero")
	runErr(t, "void main() { int z; z = 0; printi(1 % z); }", "remainder by zero")
}

func TestFloatDivisionByZeroIsInf(t *testing.T) {
	out := run(t, "void main() { double z; z = 0.0; print(1.0 / z); }")
	if !math.IsInf(out[0], 1) {
		t.Fatalf("1.0/0.0 = %v, want +Inf", out[0])
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	mod, err := pipeline.Compile("t.c", "void main() { while (1) { } }")
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(mod, interp.Config{MaxSteps: 10000})
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("want step-limit error, got %v", err)
	}
}

func TestRecursionDepthGuard(t *testing.T) {
	mod, err := pipeline.Compile("t.c", `
int f(int n) { return f(n + 1); }
void main() { printi(f(0)); }
`)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(mod, interp.Config{MaxDepth: 100})
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("want depth error, got %v", err)
	}
}

func TestMissingEntry(t *testing.T) {
	mod, err := pipeline.Compile("t.c", "void notmain() { }")
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(mod, interp.Config{})
	if _, err := m.Run("main"); err == nil || !strings.Contains(err.Error(), `no function "main"`) {
		t.Fatalf("want missing-entry error, got %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
double A[32];
void main() {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 32; i++) { A[i] = sin(0.1 * i); s = s + A[i]; }
  print(s);
}`
	a := run(t, src)
	b := run(t, src)
	if a[0] != b[0] {
		t.Fatalf("non-deterministic: %v vs %v", a[0], b[0])
	}
}

func TestLoopCycleAttribution(t *testing.T) {
	res := runRes(t, `
double g;
void main() {
  int i;
  int j;
  g = 0.0;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 100; j++) {
      g = g + 1.0;
    }
  }
}
`)
	// The inner loop (ID 1) must dominate exclusive cycles.
	if res.LoopCycles[1] <= res.LoopCycles[0] {
		t.Errorf("inner loop cycles %d should exceed outer's exclusive %d",
			res.LoopCycles[1], res.LoopCycles[0])
	}
	if res.LoopFPOps[1] != 400 {
		t.Errorf("inner loop fp ops = %d, want 400", res.LoopFPOps[1])
	}
	if res.LoopParents[1] != 0 || res.LoopParents[0] != -1 {
		t.Errorf("runtime parents = %v", res.LoopParents)
	}
}

func TestLoopParentsAcrossCalls(t *testing.T) {
	res := runRes(t, `
double g;
void work() {
  int j;
  for (j = 0; j < 10; j++) { g = g + 1.0; }
}
void main() {
  int i;
  for (i = 0; i < 3; i++) { work(); }
}
`)
	// The callee's loop (ID 1... order: work's loop parsed first) must be
	// a runtime child of main's loop.
	var calleeLoop, mainLoop int = -1, -1
	for id, parent := range res.LoopParents {
		if parent == -1 {
			mainLoop = id
		} else {
			calleeLoop = id
		}
	}
	if calleeLoop == -1 || mainLoop == -1 {
		t.Fatalf("parents = %v", res.LoopParents)
	}
	if res.LoopParents[calleeLoop] != mainLoop {
		t.Errorf("callee loop parent = %d, want %d", res.LoopParents[calleeLoop], mainLoop)
	}
}

func TestOpCountsClassification(t *testing.T) {
	res := runRes(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 10; i++) {
    g = g + 1.0;
    g = g * 2.0;
    g = g / 3.0;
  }
}
`)
	oc := res.LoopOps[0]
	if oc == nil {
		t.Fatal("no op counts for loop 0")
	}
	if oc.FPAdd != 10 || oc.FPMul != 10 || oc.FPDiv != 10 {
		t.Errorf("fp counts = %d/%d/%d, want 10/10/10", oc.FPAdd, oc.FPMul, oc.FPDiv)
	}
	// g is a global: its loads/stores are memory class, not frame class.
	if oc.Load < 30 || oc.Store < 30 {
		t.Errorf("global loads/stores = %d/%d, want >= 30 each", oc.Load, oc.Store)
	}
	if oc.Total() == 0 {
		t.Error("Total should be positive")
	}
}

func TestFrameAccessCheap(t *testing.T) {
	// A loop over a local scalar must cost less than the same loop over a
	// global (frame traffic is charged as register traffic).
	local := runRes(t, `
void main() {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 1000; i++) { s = s + 1.0; }
  print(s);
}
`)
	global := runRes(t, `
double s;
void main() {
  int i;
  s = 0.0;
  for (i = 0; i < 1000; i++) { s = s + 1.0; }
  print(s);
}
`)
	if local.Cycles >= global.Cycles {
		t.Errorf("local accumulation (%d cycles) should be cheaper than global (%d)",
			local.Cycles, global.Cycles)
	}
}

func TestChecksum(t *testing.T) {
	r := &interp.Result{Output: []float64{1, 2, 3}}
	if r.Checksum() == 0 {
		t.Error("checksum of non-empty output should be non-zero")
	}
	empty := &interp.Result{}
	if empty.Checksum() != 0 {
		t.Error("checksum of empty output should be zero")
	}
}

func TestTraceSinkMatchesSteps(t *testing.T) {
	mod, err := pipeline.Compile("t.c", `
double g;
void main() {
  int i;
  for (i = 0; i < 5; i++) { g = g + 1.0; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	sink := &interp.TraceSink{}
	m := interp.New(mod, interp.Config{Tracer: sink})
	res, err := m.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(sink.Events)) != res.Steps {
		t.Fatalf("trace has %d events, interpreter ran %d steps", len(sink.Events), res.Steps)
	}
	// Loads and stores carry addresses; everything else reports NoAddr.
	for _, ev := range sink.Events {
		in := mod.InstrAt(ev.ID)
		isMem := in.Op == ir.OpLoad || in.Op == ir.OpStore
		if isMem && ev.Addr == interp.NoAddr {
			t.Fatalf("memory op %s without address", in.Op)
		}
		if !isMem && ev.Addr != interp.NoAddr {
			t.Fatalf("non-memory op %s with address %#x", in.Op, ev.Addr)
		}
	}
}

// TestExpressionOracle quick-checks arithmetic against Go evaluation: for
// random small integers, a MiniC expression mixing the operators must match
// the Go result.
func TestExpressionOracle(t *testing.T) {
	mod, err := pipeline.Compile("t.c", `
int a;
int b;
int c;
int r;
void main() {
  r = (a + b) * c - a * (b - c) + a % (c + 7);
  printi(r);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, b, c int16) bool {
		av, bv, cv := int64(a), int64(b), int64(c)
		if cv+7 == 0 {
			return true // skip the divisor-zero case
		}
		// Poke the global initial values directly.
		want := (av+bv)*cv - av*(bv-cv) + av%(cv+7)
		m := interp.New(mod, interp.Config{})
		// Globals a,b,c are zero-initialized; write via Init bytes.
		setGlobal(mod, "a", av)
		setGlobal(mod, "b", bv)
		setGlobal(mod, "c", cv)
		res, err := m.Run("main")
		if err != nil {
			return false
		}
		return int64(res.Output[0]) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func setGlobal(mod *ir.Module, name string, v int64) {
	for i := range mod.Globals {
		if mod.Globals[i].Name == name {
			b := make([]byte, 8)
			for k := 0; k < 8; k++ {
				b[k] = byte(uint64(v) >> (8 * k))
			}
			mod.Globals[i].Init = b
		}
	}
}

func TestCostModel(t *testing.T) {
	div := &ir.Instr{Op: ir.OpBin, Type: ir.F64, Bin: ir.DivOp}
	add := &ir.Instr{Op: ir.OpBin, Type: ir.F64, Bin: ir.AddOp}
	intAdd := &ir.Instr{Op: ir.OpBin, Type: ir.I64, Bin: ir.AddOp}
	intr := &ir.Instr{Op: ir.OpIntrinsic, Intr: ir.IntrExp}
	if interp.Cost(div) <= interp.Cost(add) {
		t.Error("division should cost more than addition")
	}
	if interp.Cost(add) <= interp.Cost(intAdd) {
		t.Error("fp add should cost more than int add")
	}
	if interp.Cost(intr) <= interp.Cost(div) {
		t.Error("intrinsics should be the most expensive")
	}
}

func TestDoWhile(t *testing.T) {
	expect(t, `void main() {
  int i;
  int s;
  i = 0;
  s = 0;
  do {
    s = s + i;
    i++;
  } while (i < 5);
  printi(s);
  // The body runs once even when the condition is initially false.
  do {
    s = s + 100;
  } while (0);
  printi(s);
}`, 10, 110)
}

func TestDoWhileBreakContinue(t *testing.T) {
	expect(t, `void main() {
  int i;
  int s;
  i = 0;
  s = 0;
  do {
    i++;
    if (i == 2) { continue; }
    if (i == 5) { break; }
    s = s + i;
  } while (i < 10);
  printi(s);
}`, 1+3+4)
}

func TestPointerTruthiness(t *testing.T) {
	expect(t, `
double A[4];
void main() {
  double *p;
  int n;
  n = 0;
  p = A;
  while (p != A + 4) {
    n++;
    p = p + 1;
  }
  printi(n);
  if (p == A + 4) { printi(1); } else { printi(0); }
}`, 4, 1)
}

func TestArgumentEvaluationOrder(t *testing.T) {
	// Arguments evaluate left to right; each bump() call mutates a global.
	expect(t, `
double g;
double bump() {
  g = g + 1.0;
  return g;
}
double pair(double a, double b) { return a * 10.0 + b; }
void main() {
  print(pair(bump(), bump()));
}`, 1.0*10+2.0)
}

func TestStructArrayZeroInit(t *testing.T) {
	expect(t, `
struct v { double x; double y; };
struct v vs[8];
void main() {
  print(vs[0].x + vs[7].y);
}`, 0)
}

func TestMixedPrecisionExpression(t *testing.T) {
	// float promotes to double when mixed; int promotes to float.
	out := run(t, `
void main() {
  float f;
  int i;
  f = 0.5;
  i = 3;
  print(f + 0.25);
  print(f * i);
}`)
	if out[0] != 0.75 {
		t.Fatalf("f + 0.25 = %v", out[0])
	}
	if out[1] != 1.5 {
		t.Fatalf("f * i = %v", out[1])
	}
}

func TestNegativeStepLoop(t *testing.T) {
	expect(t, `void main() {
  int i;
  int s;
  s = 0;
  for (i = 10; i > 0; i = i - 2) { s = s + i; }
  printi(s);
}`, 10+8+6+4+2)
}
