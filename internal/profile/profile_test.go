package profile_test

import (
	"context"
	"github.com/example/vectrace/internal/core"
	"testing"

	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/staticvec"
)

func buildProfile(t *testing.T, src string) (*ir.Module, *interp.Result, *profile.Profile) {
	t.Helper()
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := staticvec.AnalyzeModule(mod)
	return mod, res, profile.Build(mod, res, verdicts)
}

func TestInclusiveCycles(t *testing.T) {
	mod, res, p := buildProfile(t, `
double g;
void main() {
  int i;
  int j;
  for (i = 0; i < 4; i++) {       /* loop 0 */
    for (j = 0; j < 200; j++) {   /* loop 1 */
      g = g + 1.0;
    }
  }
}
`)
	outer := p.Loop(0)
	inner := p.Loop(1)
	if outer == nil || inner == nil {
		t.Fatal("missing loop stats")
	}
	// Inclusive: the outer loop contains the inner's cycles.
	if outer.Cycles <= inner.Cycles {
		t.Errorf("outer inclusive %d should exceed inner %d", outer.Cycles, inner.Cycles)
	}
	if outer.Cycles != res.LoopCycles[0]+res.LoopCycles[1] {
		t.Errorf("outer inclusive %d != exclusive sum %d",
			outer.Cycles, res.LoopCycles[0]+res.LoopCycles[1])
	}
	if inner.FPOps != 800 {
		t.Errorf("inner fp ops = %d, want 800", inner.FPOps)
	}
	if outer.FPOps != 800 {
		t.Errorf("outer inclusive fp ops = %d, want 800", outer.FPOps)
	}
	if outer.Innermost || !inner.Innermost {
		t.Error("innermost flags wrong")
	}
	_ = mod
}

func TestPercentPacked(t *testing.T) {
	_, _, p := buildProfile(t, `
double a[256];
double b[256];
double s;
void main() {
  int i;
  for (i = 0; i < 256; i++) { a[i] = 0.5 * i; }        /* vectorizable */
  for (i = 1; i < 256; i++) { b[i] = b[i-1] + a[i]; }  /* recurrence */
}
`)
	vec := p.Loop(0)
	ser := p.Loop(1)
	if vec.PercentPacked() != 100 {
		t.Errorf("vectorizable loop packed = %.1f, want 100", vec.PercentPacked())
	}
	if ser.PercentPacked() != 0 {
		t.Errorf("recurrence loop packed = %.1f, want 0", ser.PercentPacked())
	}
}

func TestPercentPackedAcrossCalls(t *testing.T) {
	// The packed share of a caller loop includes vectorized loops inside
	// callees — runtime attribution, like HPCToolkit's.
	_, _, p := buildProfile(t, `
double a[128];
void fill(double base) {
  int j;
  for (j = 0; j < 128; j++) { a[j] = base * j; }
}
void main() {
  int i;
  for (i = 0; i < 4; i++) {
    fill(1.0 + i);
  }
}
`)
	// main's loop is the runtime parent of fill's loop; its inclusive FP
	// ops are all packed.
	var mainLoop *profile.LoopStats
	for i := range p.Loops {
		if p.Loops[i].Func == "main" {
			mainLoop = &p.Loops[i]
		}
	}
	if mainLoop == nil {
		t.Fatal("main loop missing")
	}
	if mainLoop.FPOps == 0 {
		t.Fatal("inclusive FP ops should cross the call")
	}
	// The "1.0 + i" argument add executes in the caller loop itself and is
	// not packed, so the share is just under 100%.
	if mainLoop.PercentPacked() < 95 {
		t.Errorf("main loop packed = %.1f, want ~100", mainLoop.PercentPacked())
	}
}

func TestHotSelection(t *testing.T) {
	_, _, p := buildProfile(t, `
double g;
void main() {
  int i;
  int j;
  for (i = 0; i < 1000; i++) { g = g + 1.0; }   /* hot */
  for (j = 0; j < 5; j++) { g = g * 2.0; }      /* cold */
}
`)
	hot := p.Hot(10)
	if len(hot) != 1 {
		t.Fatalf("hot loops = %d, want 1", len(hot))
	}
	if hot[0].LoopID != 0 {
		t.Errorf("hot loop = %d, want 0", hot[0].LoopID)
	}
}

// TestHotParentRule: a parent loop enters the table only when its share
// exceeds the sum of its children's by 10 points (the paper's rule).
func TestHotParentRule(t *testing.T) {
	// Parent with significant own work beyond the inner loop.
	_, _, p := buildProfile(t, `
double g;
double h;
void main() {
  int i;
  int j;
  for (i = 0; i < 100; i++) {       /* parent */
    for (j = 0; j < 3; j++) {       /* small child */
      g = g + 1.0;
    }
    h = h + g * 1.5 + sqrt(g) + exp(h * 0.001);  /* heavy parent body */
    h = h - g / 3.0;
    g = g * 0.999 + h * 0.001;
  }
}
`)
	hot := p.Hot(10)
	foundParent := false
	for _, st := range hot {
		if st.LoopID == 0 {
			foundParent = true
		}
	}
	if !foundParent {
		t.Errorf("parent with heavy own body should be selected: %+v", hot)
	}

	// Parent that is a thin wrapper around its child is NOT selected.
	_, _, p2 := buildProfile(t, `
double g;
void main() {
  int i;
  int j;
  for (i = 0; i < 10; i++) {        /* thin parent */
    for (j = 0; j < 200; j++) {     /* dominant child */
      g = g + 1.0;
    }
  }
}
`)
	for _, st := range p2.Hot(10) {
		if st.LoopID == 0 {
			t.Error("thin wrapper parent should not be selected")
		}
	}
}

func TestSubtree(t *testing.T) {
	mod, res, _ := buildProfile(t, `
double g;
void inner() {
  int j;
  for (j = 0; j < 3; j++) { g = g + 1.0; }
}
void main() {
  int i;
  for (i = 0; i < 2; i++) { inner(); }
  for (i = 0; i < 2; i++) { g = g * 2.0; }
}
`)
	// Loop IDs: inner's loop = 0, main's first = 1, main's second = 2.
	set := profile.Subtree(mod, res, 1)
	if !set[1] || !set[0] {
		t.Errorf("subtree of main's first loop should include the callee loop: %v", set)
	}
	if set[2] {
		t.Error("subtree should not include the sibling loop")
	}
}

func TestSpecHotLoopsAreHot(t *testing.T) {
	// Every Table 1 target must clear the paper's 10% threshold in our
	// profiles (they were sized that way).
	for _, b := range kernels.SPEC() {
		mod, err := pipeline.Compile(b.Kernel.Name+".c", b.Kernel.Source)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		p := profile.Build(mod, res, staticvec.AnalyzeModule(mod))
		for _, target := range b.Targets {
			lm := mod.LoopByLine(b.Kernel.LineOf(target.Marker))
			if lm == nil {
				t.Fatalf("%s: no loop for %s", b.Name, target.Label)
			}
			st := p.Loop(lm.ID)
			if st == nil || st.PercentCycles < 5 {
				pct := 0.0
				if st != nil {
					pct = st.PercentCycles
				}
				t.Errorf("%s %s: %.1f%% of cycles, want >= 5%% (the extended-study threshold)",
					b.Name, target.Label, pct)
			}
		}
	}
}
