package kernels_test

import (
	"math"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
)

// analyzeRegion runs the dynamic analysis on the marked loop's first region.
func analyzeRegion(t *testing.T, k kernels.Kernel, marker string) *core.Report {
	t.Helper()
	_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	region := tr.Slice(tr.Regions(tr.Module.LoopByLine(k.LineOf(marker)).ID)[0])
	g, err := ddg.Build(region)
	if err != nil {
		t.Fatal(err)
	}
	return core.Analyze(g, core.Options{})
}

// TestSizeStability reproduces the §4.1 claim that "although metrics such
// as average vector size can vary with problem size, the qualitative
// insights about potential vectorizability do not change": the percentage
// split between unit and non-unit potential stays essentially constant
// across problem sizes, while the average vector sizes scale.
func TestSizeStability(t *testing.T) {
	t.Run("gauss-seidel", func(t *testing.T) {
		sizes := []int{16, 24, 40}
		var unitPcts, nonUnitPcts, unitSizes []float64
		for _, n := range sizes {
			rep := analyzeRegion(t, kernels.GaussSeidel(n, 2), "@time-loop")
			unitPcts = append(unitPcts, rep.UnitVecOpsPct)
			nonUnitPcts = append(nonUnitPcts, rep.NonUnitVecOpsPct)
			unitSizes = append(unitSizes, rep.UnitAvgVecSize)
		}
		// Percentages stable within a few points.
		for i := 1; i < len(sizes); i++ {
			if math.Abs(unitPcts[i]-unitPcts[0]) > 5 {
				t.Errorf("unit%% drifted across sizes: %v", unitPcts)
			}
			if math.Abs(nonUnitPcts[i]-nonUnitPcts[0]) > 5 {
				t.Errorf("non-unit%% drifted across sizes: %v", nonUnitPcts)
			}
		}
		// Vector sizes grow with the problem (the row width).
		for i := 1; i < len(sizes); i++ {
			if unitSizes[i] <= unitSizes[i-1] {
				t.Errorf("unit vec size should grow with N: %v", unitSizes)
			}
		}
		// The qualitative verdict holds at every size: non-unit dominates.
		for i := range sizes {
			if nonUnitPcts[i] <= unitPcts[i] {
				t.Errorf("N=%d: non-unit %v should dominate unit %v", sizes[i], nonUnitPcts[i], unitPcts[i])
			}
		}
	})

	t.Run("pde-solver", func(t *testing.T) {
		for _, cfg := range []struct{ block, grid int }{{8, 3}, {12, 3}, {8, 5}} {
			rep := analyzeRegion(t, kernels.PDESolver(cfg.block, cfg.grid), "@grid-j")
			if rep.UnitVecOpsPct < 99 {
				t.Errorf("block=%d grid=%d: unit%% = %.1f, want ~100 at every size",
					cfg.block, cfg.grid, rep.UnitVecOpsPct)
			}
		}
	})

	t.Run("listing1", func(t *testing.T) {
		// The S2 insight — one partition per j of size N, fully unit — at
		// every size.
		for _, n := range []int{8, 16, 32} {
			k := kernels.Listing1(n)
			_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ddg.Build(tr)
			if err != nil {
				t.Fatal(err)
			}
			line := k.LineOf("@S2")
			for _, id := range g.Mod.CandidateIDs(-1) {
				if g.Mod.InstrAt(id).Pos.Line != line {
					continue
				}
				rep := core.AnalyzeInstr(g, id, core.Options{})
				if rep.Partitions != n-1 {
					t.Errorf("N=%d: partitions = %d, want %d", n, rep.Partitions, n-1)
				}
				if got := rep.Unit.AvgVecSize(); math.Abs(got-float64(n)) > 1e-9 {
					t.Errorf("N=%d: avg vec size = %v, want %d", n, got, n)
				}
			}
		}
	})
}
