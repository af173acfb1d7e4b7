package staticvec_test

import (
	"context"
	"github.com/example/vectrace/internal/core"
	"math"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/staticvec"
)

func compile(t *testing.T, k kernels.Kernel) *ir.Module {
	t.Helper()
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		t.Fatalf("compile %s: %v", k.Name, err)
	}
	return mod
}

// verdictAt returns the vectorizer verdict for the loop on the marked line.
func verdictAt(t *testing.T, mod *ir.Module, k kernels.Kernel, marker string) staticvec.Verdict {
	t.Helper()
	line := k.LineOf(marker)
	lm := mod.LoopByLine(line)
	if lm == nil {
		t.Fatalf("%s: no loop on line %d (marker %s)", k.Name, line, marker)
	}
	verdicts := staticvec.AnalyzeModule(mod)
	v, ok := verdicts[lm.ID]
	if !ok {
		t.Fatalf("%s: no verdict for loop L%d (marker %s) — not innermost?", k.Name, lm.ID, marker)
	}
	return v
}

// run executes a kernel and returns its result.
func run(t *testing.T, k kernels.Kernel) *interp.Result {
	t.Helper()
	mod := compile(t, k)
	res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
	if err != nil {
		t.Fatalf("run %s: %v", k.Name, err)
	}
	return res
}

// TestGaussSeidelVerdicts reproduces the §4.4 Gauss-Seidel case study at the
// compiler level: the original innermost loop is rejected for its
// loop-carried dependence; after the paper's loop splitting, the temp[] loop
// vectorizes and the recurrence loop remains serial.
func TestGaussSeidelVerdicts(t *testing.T) {
	orig := kernels.GaussSeidel(32, 2)
	mod := compile(t, orig)
	v := verdictAt(t, mod, orig, "@j-loop")
	if v.Vectorized {
		t.Fatalf("original Gauss-Seidel inner loop vectorized; want rejection, reason=%q", v.Reason)
	}
	if !strings.Contains(v.Reason, "loop-carried dependence") {
		t.Fatalf("original rejection reason = %q, want loop-carried dependence", v.Reason)
	}

	tr := kernels.GaussSeidelTransformed(32, 2)
	tmod := compile(t, tr)
	if v := verdictAt(t, tmod, tr, "@vec-loop"); !v.Vectorized {
		t.Fatalf("transformed temp loop not vectorized: %s", v.Reason)
	}
	if v := verdictAt(t, tmod, tr, "@serial-loop"); v.Vectorized {
		t.Fatalf("transformed recurrence loop unexpectedly vectorized")
	}
}

// TestGaussSeidelEquivalence checks the transformation preserves semantics:
// both versions print identical values.
func TestGaussSeidelEquivalence(t *testing.T) {
	a := run(t, kernels.GaussSeidel(24, 3))
	b := run(t, kernels.GaussSeidelTransformed(24, 3))
	if len(a.Output) != len(b.Output) {
		t.Fatalf("output lengths differ: %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if math.Abs(a.Output[i]-b.Output[i]) > 1e-12*math.Abs(a.Output[i]) {
			t.Fatalf("output %d differs: %v vs %v", i, a.Output[i], b.Output[i])
		}
	}
}

// TestPDESolverVerdicts reproduces the PDE case study: the original per-cell
// loop is rejected for its data-dependent boundary conditional; the hoisted
// interior loop vectorizes.
func TestPDESolverVerdicts(t *testing.T) {
	orig := kernels.PDESolver(16, 3)
	mod := compile(t, orig)
	v := verdictAt(t, mod, orig, "@block-i")
	if v.Vectorized {
		t.Fatal("original PDE inner loop vectorized; want rejection for control flow")
	}
	if !strings.Contains(v.Reason, "control flow") {
		t.Fatalf("original rejection reason = %q, want data-dependent control flow", v.Reason)
	}

	tr := kernels.PDESolverTransformed(16, 3)
	tmod := compile(t, tr)
	if v := verdictAt(t, tmod, tr, "@int-i"); !v.Vectorized {
		t.Fatalf("transformed interior loop not vectorized: %s", v.Reason)
	}
	if v := verdictAt(t, tmod, tr, "@bnd-i"); v.Vectorized {
		t.Fatal("boundary loop unexpectedly vectorized")
	}
}

// TestPDESolverEquivalence checks the hoisting transformation preserves
// semantics.
func TestPDESolverEquivalence(t *testing.T) {
	a := run(t, kernels.PDESolver(8, 4))
	b := run(t, kernels.PDESolverTransformed(8, 4))
	if len(a.Output) != len(b.Output) {
		t.Fatalf("output lengths differ: %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			t.Fatalf("output %d differs: %v vs %v", i, a.Output[i], b.Output[i])
		}
	}
}

// TestReductionVerdict checks that the vectorizer accepts a simple dot
// product as a reduction — the behaviour that makes measured Percent Packed
// exceed the dynamic Percent Vec. Ops in the paper's Table 1.
func TestReductionVerdict(t *testing.T) {
	k := kernels.Kernel{Name: "dot", Source: `
double a[256];
double b[256];
double result;

void main() {
  int i;
  double s = 0.0;
  for (i = 0; i < 256; i++) {   /* @init */
    a[i] = 0.5 * i;
    b[i] = 1.0 - 0.25 * i;
  }
  for (i = 0; i < 256; i++) {   /* @dot */
    s = s + a[i] * b[i];
  }
  result = s;
  print(s);
}
`}
	mod := compile(t, k)
	v := verdictAt(t, mod, k, "@dot")
	if !v.Vectorized {
		t.Fatalf("dot product not vectorized: %s", v.Reason)
	}
	if !v.Reduction {
		t.Fatal("dot product vectorized but not flagged as a reduction")
	}
	if v.IVStep != 1 {
		t.Fatalf("IV step = %d, want 1", v.IVStep)
	}
	if v.TripCount != 256 {
		t.Fatalf("trip count = %d, want 256", v.TripCount)
	}
}

// TestPointerAliasRejection checks the §4.3 behaviour: the same computation
// written through pointer parameters is rejected for possible aliasing.
func TestPointerAliasRejection(t *testing.T) {
	k := kernels.Kernel{Name: "ptr", Source: `
double a[128];
double b[128];

void scale(double *dst, double *src, int n) {
  int i;
  for (i = 0; i < n; i++) {   /* @scale */
    dst[i] = 2.0 * src[i];
  }
}

void main() {
  int i;
  for (i = 0; i < 128; i++) {  /* @init */
    a[i] = 0.125 * i;
  }
  scale(b, a, 128);
  print(b[127]);
}
`}
	mod := compile(t, k)
	v := verdictAt(t, mod, k, "@scale")
	if v.Vectorized {
		t.Fatal("pointer loop vectorized; want conservative aliasing rejection")
	}
	if !strings.Contains(v.Reason, "aliasing") {
		t.Fatalf("rejection reason = %q, want aliasing", v.Reason)
	}

	// The array-based equivalent vectorizes.
	k2 := kernels.Kernel{Name: "arr", Source: `
double a[128];
double b[128];

void main() {
  int i;
  for (i = 0; i < 128; i++) {  /* @init */
    a[i] = 0.125 * i;
  }
  for (i = 0; i < 128; i++) {  /* @scale */
    b[i] = 2.0 * a[i];
  }
  print(b[127]);
}
`}
	mod2 := compile(t, k2)
	if v := verdictAt(t, mod2, k2, "@scale"); !v.Vectorized {
		t.Fatalf("array loop not vectorized: %s", v.Reason)
	}
}

// TestNonUnitStrideRejection checks blocker (3): column-major access through
// a row-major array is rejected for non-unit stride.
func TestNonUnitStrideRejection(t *testing.T) {
	k := kernels.Kernel{Name: "col", Source: `
double a[64][64];
double b[64][64];

void main() {
  int i;
  int j;
  for (i = 0; i < 64; i++) {    /* @init */
    for (j = 0; j < 64; j++) {
      a[i][j] = 0.01 * (i + j);
    }
  }
  for (j = 0; j < 64; j++) {    /* @outer */
    for (i = 0; i < 64; i++) {  /* @col */
      b[i][j] = 2.0 * a[i][j];
    }
  }
  print(b[63][63]);
}
`}
	mod := compile(t, k)
	v := verdictAt(t, mod, k, "@col")
	if v.Vectorized {
		t.Fatal("column-stride loop vectorized; want non-unit stride rejection")
	}
	if !strings.Contains(v.Reason, "stride") {
		t.Fatalf("rejection reason = %q, want non-unit stride", v.Reason)
	}
}

// TestSmallTripCountRejection checks the milc-style blocker: constant trip
// counts below the vector width are not worth vectorizing.
func TestSmallTripCountRejection(t *testing.T) {
	k := kernels.Kernel{Name: "tiny", Source: `
double a[3];
double b[3];

void main() {
  int i;
  a[0] = 1.0; a[1] = 2.0; a[2] = 3.0;
  for (i = 0; i < 3; i++) {  /* @tiny */
    b[i] = 2.0 * a[i];
  }
  print(b[2]);
}
`}
	mod := compile(t, k)
	v := verdictAt(t, mod, k, "@tiny")
	if v.Vectorized {
		t.Fatal("trip-3 loop vectorized; want small-trip-count rejection")
	}
	if !strings.Contains(v.Reason, "trip count") {
		t.Fatalf("rejection reason = %q, want trip count", v.Reason)
	}
}

// TestRejectionReasonCatalog pins each rejection path in the vectorizer.
func TestRejectionReasonCatalog(t *testing.T) {
	cases := []struct {
		name, src, marker, want string
	}{
		{
			"function call",
			`
double g;
double f(double x) { return x * 2.0; }
void main() {
  int i;
  for (i = 0; i < 16; i++) {  /* @L */
    g = g + f(1.0 * i);
  }
}`, "@L", "function call",
		},
		{
			"no fp work",
			`
int a[16];
void main() {
  int i;
  for (i = 0; i < 16; i++) {  /* @L */
    a[i] = i * 2;
  }
  printi(a[15]);
}`, "@L", "no floating-point",
		},
		{
			"multiple IVs",
			`
double a[64];
void main() {
  int i;
  int k;
  k = 0;
  for (i = 0; i < 16; i++) {  /* @L */
    a[k] = 1.5 * i;
    k = k + 2;
  }
  print(a[30]);
}`, "@L", "no unique induction variable",
		},
		{
			"scalar recurrence",
			`
double a[32];
double prev;
void main() {
  int i;
  prev = 0.0;
  for (i = 0; i < 32; i++) {  /* @L */
    double cur = a[i] * 0.5;
    a[i] = cur - prev;
    prev = cur * 0.25 + prev * 0.5;
  }
  print(a[31]);
}`, "@L", "store recurrence", // prev is a global: the memory path rejects it
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := kernels.Kernel{Name: "catalog", Source: c.src}
			mod := compile(t, k)
			v := verdictAt(t, mod, k, c.marker)
			if v.Vectorized {
				t.Fatalf("loop unexpectedly vectorized")
			}
			if !strings.Contains(v.Reason, c.want) {
				t.Fatalf("reason = %q, want substring %q", v.Reason, c.want)
			}
		})
	}
}

// TestNegativeStepIV: a descending loop with constant bounds computes its
// trip count and vectorizes when contiguous... which descending access is
// not — the stride is negative.
func TestNegativeStepIV(t *testing.T) {
	k := kernels.Kernel{Name: "desc", Source: `
double a[64];
double b[64];
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; }
  for (i = 63; i >= 0; i = i - 1) {  /* @L */
    b[i] = 2.0 * a[i];
  }
  print(b[0]);
}`}
	mod := compile(t, k)
	v := verdictAt(t, mod, k, "@L")
	if v.IVStep != -1 {
		t.Fatalf("IV step = %d, want -1", v.IVStep)
	}
	if v.Vectorized {
		t.Fatal("descending walk has stride -8; the conservative model rejects it")
	}
	if !strings.Contains(v.Reason, "stride") {
		t.Fatalf("reason = %q, want stride", v.Reason)
	}
}

// TestDoWhileVerdict: bottom-test loops get analyzed like any natural loop.
func TestDoWhileVerdict(t *testing.T) {
	k := kernels.Kernel{Name: "dowhile", Source: `
double a[64];
double b[64];
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; }
  i = 0;
  do {                     /* @L */
    b[i] = 2.0 * a[i];
    i = i + 1;
  } while (i < 64);
  print(b[63]);
}`}
	mod := compile(t, k)
	v := verdictAt(t, mod, k, "@L")
	if !v.Vectorized {
		t.Fatalf("do-while stream not vectorized: %s", v.Reason)
	}
}

// TestDampedRecurrenceNotAReduction pins the spine restriction for local
// accumulators: prev = cur*0.25 + prev*0.5 scales the accumulator, so it is
// a first-order recurrence, not a reassociable reduction.
func TestDampedRecurrenceNotAReduction(t *testing.T) {
	k := kernels.Kernel{Name: "damped", Source: `
double a[32];
void main() {
  int i;
  double prev;
  prev = 0.0;
  for (i = 0; i < 32; i++) {  /* @L */
    double cur = a[i] * 0.5;
    a[i] = cur - prev;
    prev = cur * 0.25 + prev * 0.5;
  }
  print(a[31]);
}`}
	mod := compile(t, k)
	v := verdictAt(t, mod, k, "@L")
	if v.Vectorized {
		t.Fatal("damped recurrence misclassified as a reduction")
	}
	if !strings.Contains(v.Reason, "scalar recurrence") {
		t.Fatalf("reason = %q, want loop-carried scalar recurrence", v.Reason)
	}

	// The plain sum over the same shape remains a reduction.
	k2 := kernels.Kernel{Name: "plainsum", Source: `
double a[32];
void main() {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 32; i++) {  /* @L */
    s = s + a[i] * 0.5 + 1.0;
  }
  print(s);
}`}
	mod2 := compile(t, k2)
	v2 := verdictAt(t, mod2, k2, "@L")
	if !v2.Vectorized || !v2.Reduction {
		t.Fatalf("chained sum should reduce: vectorized=%v reduction=%v reason=%q",
			v2.Vectorized, v2.Reduction, v2.Reason)
	}
}
