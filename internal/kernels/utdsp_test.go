package kernels_test

import (
	"math"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/staticvec"
	"github.com/example/vectrace/internal/trace"
)

// analyzeHot compiles, traces, and analyzes the @hot loop region of a
// kernel, returning the report and the execution output.
func analyzeHot(t *testing.T, k kernels.Kernel) (*core.Report, []float64) {
	t.Helper()
	mod, res, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	_ = mod
	region := tr.Slice(tr.Regions(tr.Module.LoopByLine(k.LineOf("@hot")).ID)[0])
	g, err := ddg.Build(region)
	if err != nil {
		t.Fatalf("%s: DDG: %v", k.Name, err)
	}
	return core.Analyze(g, core.Options{}), res.Output
}

// hotVectorized reports whether any loop inside the kernel's @hot loop
// subtree was accepted by the static vectorizer.
func hotVectorized(t *testing.T, k kernels.Kernel) bool {
	t.Helper()
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	lm := mod.LoopByLine(k.LineOf("@hot"))
	if lm == nil {
		t.Fatalf("%s: no loop at @hot", k.Name)
	}
	verdicts := staticvec.AnalyzeModule(mod)
	inSubtree := map[int]bool{lm.ID: true}
	for changed := true; changed; {
		changed = false
		for i := range mod.Loops {
			l := &mod.Loops[i]
			if !inSubtree[l.ID] && l.Parent >= 0 && inSubtree[l.Parent] {
				inSubtree[l.ID] = true
				changed = true
			}
		}
	}
	for id, v := range verdicts {
		if inSubtree[id] && v.Vectorized {
			return true
		}
	}
	return false
}

// TestUTDSPFormInvariance reproduces the §4.3 result: for every kernel pair,
// the pointer-based and array-based versions produce identical outputs AND
// identical dynamic vectorization metrics — the analysis "does not make a
// distinction between data that is read from arrays or pointer
// dereferencing".
func TestUTDSPFormInvariance(t *testing.T) {
	for _, pair := range kernels.UTDSP() {
		pair := pair
		t.Run(pair.Name, func(t *testing.T) {
			ra, outA := analyzeHot(t, pair.Array)
			rp, outP := analyzeHot(t, pair.Pointer)

			if len(outA) != len(outP) {
				t.Fatalf("output lengths differ: %d vs %d", len(outA), len(outP))
			}
			for i := range outA {
				if math.Abs(outA[i]-outP[i]) > 1e-12*(1+math.Abs(outA[i])) {
					t.Fatalf("output %d differs: %v vs %v", i, outA[i], outP[i])
				}
			}

			if ra.TotalCandidateOps != rp.TotalCandidateOps {
				t.Fatalf("candidate ops differ: %d vs %d", ra.TotalCandidateOps, rp.TotalCandidateOps)
			}
			near := func(name string, a, b float64) {
				if math.Abs(a-b) > 1e-9 {
					t.Fatalf("%s differs: array=%v pointer=%v", name, a, b)
				}
			}
			near("avg concurrency", ra.AvgConcurrency, rp.AvgConcurrency)
			near("unit vec ops %", ra.UnitVecOpsPct, rp.UnitVecOpsPct)
			near("unit avg vec size", ra.UnitAvgVecSize, rp.UnitAvgVecSize)
			near("non-unit vec ops %", ra.NonUnitVecOpsPct, rp.NonUnitVecOpsPct)
			near("non-unit avg vec size", ra.NonUnitAvgVecSize, rp.NonUnitAvgVecSize)
		})
	}
}

// TestUTDSPCompilerAsymmetry reproduces Table 3's "Percent Packed" contrast:
// the static vectorizer accepts some array-form kernels but never the
// pointer forms.
func TestUTDSPCompilerAsymmetry(t *testing.T) {
	wantArrayVectorized := map[string]bool{
		"FIR":    true,  // reduction-vectorized MAC loop
		"FFT":    true,  // butterflies with runtime disambiguation
		"IIR":    false, // delay-line recurrence
		"LATNRM": false, // stage recurrence
		"LMSFIR": false, // descending-stride delay-line walk
		"MULT":   true,  // ikj unit-stride inner loop
	}
	for _, pair := range kernels.UTDSP() {
		pair := pair
		t.Run(pair.Name, func(t *testing.T) {
			gotArr := hotVectorized(t, pair.Array)
			if want := wantArrayVectorized[pair.Name]; gotArr != want {
				t.Errorf("array form vectorized = %v, want %v", gotArr, want)
			}
			if hotVectorized(t, pair.Pointer) {
				t.Errorf("pointer form vectorized; icc-like conservatism should reject it")
			}
		})
	}
}

// TestUTDSPRegionsExist sanity-checks every kernel's @hot loop runs exactly
// once.
func TestUTDSPRegionsExist(t *testing.T) {
	for _, pair := range kernels.UTDSP() {
		for _, k := range []kernels.Kernel{pair.Array, pair.Pointer} {
			mod, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			lm := mod.LoopByLine(k.LineOf("@hot"))
			if lm == nil {
				t.Fatalf("%s: missing @hot loop", k.Name)
			}
			// The FFT butterfly loop runs once per stage; the others run
			// exactly once.
			regions := tr.Regions(lm.ID)
			if len(regions) < 1 {
				t.Fatalf("%s: @hot loop has no dynamic regions", k.Name)
			}
			if pair.Name != "FFT" && len(regions) != 1 {
				t.Fatalf("%s: @hot loop has %d regions, want 1", k.Name, len(regions))
			}
			var _ trace.Region = regions[0]
		}
	}
}
