package simd_test

import (
	"context"
	"github.com/example/vectrace/internal/core"
	"testing"

	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/simd"
	"github.com/example/vectrace/internal/staticvec"
)

func TestMachineConfigs(t *testing.T) {
	ms := simd.Machines()
	if len(ms) != 3 {
		t.Fatalf("machines = %d, want 3", len(ms))
	}
	xeon, i7, phenom := ms[0], ms[1], ms[2]
	if xeon.Lanes() != 2 || phenom.Lanes() != 2 {
		t.Errorf("SSE machines should have 2 double lanes, got %v/%v", xeon.Lanes(), phenom.Lanes())
	}
	if i7.Lanes() != 4 {
		t.Errorf("AVX machine should have 4 double lanes, got %v", i7.Lanes())
	}
	for _, m := range ms {
		if m.VecOverhead < 1 || m.ReductionOverhead < 1 {
			t.Errorf("%s: overheads must be >= 1", m.Name)
		}
		if m.FPDiv <= m.FPAdd {
			t.Errorf("%s: division should cost more than addition", m.Name)
		}
	}
}

func TestVectorizedLoopIsFaster(t *testing.T) {
	src := `
double a[512];
double b[512];
void main() {
  int i;
  for (i = 0; i < 512; i++) { a[i] = 0.5 * i; }
  for (i = 0; i < 512; i++) { b[i] = 2.0 * a[i] + 1.0; }
  print(b[511]);
}
`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := staticvec.AnalyzeModule(mod)

	m := simd.XeonE5630()
	vectorized := simd.SimulateTime(mod, res, verdicts, m)
	scalar := simd.SimulateTime(mod, res, map[int]staticvec.Verdict{}, m)
	if vectorized >= scalar {
		t.Fatalf("vectorized time %v should beat scalar %v", vectorized, scalar)
	}
	// AVX beats SSE on the same verdicts.
	avx := simd.SimulateTime(mod, res, verdicts, simd.CoreI72600K())
	if avx >= vectorized {
		t.Fatalf("AVX time %v should beat SSE %v", avx, vectorized)
	}
}

func TestLoopTimeSubtree(t *testing.T) {
	src := `
double g;
void main() {
  int i;
  int j;
  for (i = 0; i < 4; i++) {          /* outer: loop 0 */
    for (j = 0; j < 100; j++) {      /* inner: loop 1 */
      g = g + 1.0;
    }
  }
  for (i = 0; i < 50; i++) {         /* separate: loop 2 */
    g = g * 1.01;
  }
}
`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	none := map[int]staticvec.Verdict{}
	m := simd.XeonE5630()
	outer := simd.LoopTime(mod, res, none, m, 0)
	inner := simd.LoopTime(mod, res, none, m, 1)
	sep := simd.LoopTime(mod, res, none, m, 2)
	total := simd.SimulateTime(mod, res, none, m)
	if outer <= inner {
		t.Errorf("outer subtree %v must include inner %v", outer, inner)
	}
	if outer+sep >= total {
		t.Errorf("loop subtrees %v+%v should be under the program total %v", outer, sep, total)
	}
	if sep <= 0 {
		t.Error("separate loop time should be positive")
	}
}

func TestReductionOverheadApplied(t *testing.T) {
	src := `
double a[256];
double out;
void main() {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 256; i++) { a[i] = 0.5 * i; }
  for (i = 0; i < 256; i++) { s = s + a[i]; }
  out = s;
  print(s);
}
`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := staticvec.AnalyzeModule(mod)
	// Find the reduction loop and confirm the verdict carries the flag.
	foundReduction := false
	for _, v := range verdicts {
		if v.Vectorized && v.Reduction {
			foundReduction = true
		}
	}
	if !foundReduction {
		t.Fatal("no reduction-vectorized loop found")
	}
	m := simd.XeonE5630()
	withRed := simd.SimulateTime(mod, res, verdicts, m)
	// Strip the reduction flags: the same loops without the horizontal-add
	// penalty must be at least as fast.
	stripped := make(map[int]staticvec.Verdict, len(verdicts))
	for k, v := range verdicts {
		v.Reduction = false
		stripped[k] = v
	}
	withoutRed := simd.SimulateTime(mod, res, stripped, m)
	if withoutRed > withRed {
		t.Fatalf("reduction overhead missing: %v (with) < %v (without)", withRed, withoutRed)
	}
}
