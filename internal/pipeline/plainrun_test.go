package pipeline_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
)

// TestPlainRunMatchesTracedRun: the paper tables take their profile and
// their region counts from a plain run instead of the traced run. For every
// built-in kernel and for generated programs, the two runs must produce the
// same Result — cycles, per-loop cycles, FP ops, op classes, run-time
// parents and entries — and each loop's LoopEntries must equal the number
// of regions the captured trace splits into.
func TestPlainRunMatchesTracedRun(t *testing.T) {
	programs := map[string]string{"recursive": recursiveSrc, "triangular": triangularSrc}
	add := func(ks ...kernels.Kernel) {
		for _, k := range ks {
			programs[k.Name] = k.Source
		}
	}
	for _, b := range kernels.SPEC() {
		add(b.Kernel)
	}
	for _, p := range kernels.UTDSP() {
		add(p.Array, p.Pointer)
	}
	for _, cs := range kernels.CaseStudies() {
		add(cs.Original, cs.Transformed)
	}
	add(kernels.GaussSeidel(32, 2), kernels.PDESolver(16, 4),
		kernels.Listing1(12), kernels.Listing2(12), kernels.Listing3(10), kernels.Listing4(10))
	for seed := int64(0); seed < 20; seed++ {
		programs[fmt.Sprintf("seed%d", seed)] = generateProgram(seed)
	}
	for name, src := range programs {
		mod, err := pipeline.Compile(name+".c", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traced, tr, err := pipeline.Trace(context.Background(), mod, core.Budget{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range []struct {
			field       string
			plain, want any
		}{
			{"Cycles", plain.Cycles, traced.Cycles},
			{"LoopCycles", plain.LoopCycles, traced.LoopCycles},
			{"LoopFPOps", plain.LoopFPOps, traced.LoopFPOps},
			{"LoopOps", plain.LoopOps, traced.LoopOps},
			{"LoopParents", plain.LoopParents, traced.LoopParents},
			{"LoopEntries", plain.LoopEntries, traced.LoopEntries},
		} {
			if !reflect.DeepEqual(f.plain, f.want) {
				t.Errorf("%s: plain run's %s %v, traced run's %v", name, f.field, f.plain, f.want)
			}
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: plain and traced Results differ", name)
		}
		for _, lm := range mod.Loops {
			if got, want := plain.LoopEntries[lm.ID], int64(len(tr.Regions(lm.ID))); got != want {
				t.Errorf("%s: loop L%d has %d entries but %d regions", name, lm.ID, got, want)
			}
		}
	}
}
