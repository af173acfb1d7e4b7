package kernels_test

import (
	"context"
	"github.com/example/vectrace/internal/core"
	"math"
	"testing"

	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
)

// TestCaseStudyEquivalence verifies that every §4.4 transformation preserves
// program semantics: the original and transformed kernels print the same
// values (within floating-point reassociation tolerance — the
// transformations never reorder the arithmetic inside a statement, so the
// tolerance is tight).
func TestCaseStudyEquivalence(t *testing.T) {
	for _, cs := range kernels.CaseStudies() {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			run := func(k kernels.Kernel) []float64 {
				t.Helper()
				mod, err := pipeline.Compile(k.Name+".c", k.Source)
				if err != nil {
					t.Fatalf("%s: %v", k.Name, err)
				}
				res, err := pipeline.Run(context.Background(), mod, false, core.Budget{})
				if err != nil {
					t.Fatalf("%s: %v", k.Name, err)
				}
				if len(res.Output) == 0 {
					t.Fatalf("%s: no output", k.Name)
				}
				return res.Output
			}
			a := run(cs.Original)
			b := run(cs.Transformed)
			if len(a) != len(b) {
				t.Fatalf("output lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				tol := 1e-12 * (1 + math.Abs(a[i]))
				if math.Abs(a[i]-b[i]) > tol {
					t.Errorf("output %d: original %v, transformed %v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestCaseStudyMarkers ensures every case study's hot marker resolves to a
// real loop in both versions.
func TestCaseStudyMarkers(t *testing.T) {
	for _, cs := range kernels.CaseStudies() {
		for _, k := range []kernels.Kernel{cs.Original, cs.Transformed} {
			mod, err := pipeline.Compile(k.Name+".c", k.Source)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if mod.LoopByLine(k.LineOf(cs.HotMarker)) == nil {
				t.Errorf("%s: marker %s does not name a loop", k.Name, cs.HotMarker)
			}
		}
	}
}

// TestSPECKernelsRun executes every Table 1 kernel and sanity-checks the
// marked loops exist and consume a meaningful share of cycles.
func TestSPECKernelsRun(t *testing.T) {
	for _, b := range kernels.SPEC() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			mod, err := pipeline.Compile(b.Kernel.Name+".c", b.Kernel.Source)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if res.FPOps == 0 {
				t.Fatal("kernel executed no floating-point work")
			}
			for _, target := range b.Targets {
				lm := mod.LoopByLine(b.Kernel.LineOf(target.Marker))
				if lm == nil {
					t.Fatalf("target %s: marker %s is not a loop", target.Label, target.Marker)
				}
				if res.LoopCycles[lm.ID] == 0 && res.LoopFPOps[lm.ID] == 0 {
					// The marked loop may be non-innermost; its cycles are
					// attributed to inner loops, which RuntimeParent links
					// back. Just confirm it executed.
					found := false
					for id, parent := range res.LoopParents {
						if parent == lm.ID || id == lm.ID {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("target %s: loop never executed", target.Label)
					}
				}
			}
		})
	}
}
