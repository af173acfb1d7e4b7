// Case study (paper §4.4, Listing 5): the 2-D Gauss-Seidel stencil.
//
// The vendor-compiler stand-in refuses the original loop for its
// loop-carried dependence, yet the dynamic analysis finds that two of the
// eight additions are vectorizable at unit stride and the rest carry
// non-unit (wavefront) potential. After the paper's manual loop splitting,
// the temp[] loop vectorizes and the modeled machines show real speedups.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/simd"
	"github.com/example/vectrace/internal/staticvec"
)

func main() {
	orig := kernels.GaussSeidel(48, 4)
	trans := kernels.GaussSeidelTransformed(48, 4)

	// 1. What does the compiler do with the original?
	ctx := context.Background()
	mod, err := pipeline.Compile(orig.Name+".c", orig.Source)
	if err != nil {
		log.Fatal(err)
	}
	verdicts := staticvec.AnalyzeModule(mod)
	lm := mod.LoopByLine(orig.LineOf("@j-loop"))
	fmt.Printf("original inner loop: vectorized=%v (%s)\n",
		verdicts[lm.ID].Vectorized, verdicts[lm.ID].Reason)

	// 2. What does the dynamic analysis say? Analyze the first dynamic
	// region of the time loop.
	regs, err := pipeline.Analyze(ctx, pipeline.Source{Module: mod},
		pipeline.Spec{Line: orig.LineOf("@time-loop"), Instances: []int{0}})
	if err != nil {
		log.Fatal(err)
	}
	rep := regs[0].Report
	fmt.Printf("dynamic analysis: %.1f%% unit-stride vec ops, %.1f%% non-unit (wavefront)\n",
		rep.UnitVecOpsPct, rep.NonUnitVecOpsPct)

	// 3. After the paper's transformation, the temp loop vectorizes.
	tmod, err := pipeline.Compile(trans.Name+".c", trans.Source)
	if err != nil {
		log.Fatal(err)
	}
	tverdicts := staticvec.AnalyzeModule(tmod)
	vec := tmod.LoopByLine(trans.LineOf("@vec-loop"))
	ser := tmod.LoopByLine(trans.LineOf("@serial-loop"))
	fmt.Printf("transformed temp loop:       vectorized=%v\n", tverdicts[vec.ID].Vectorized)
	fmt.Printf("transformed recurrence loop: vectorized=%v (%s)\n",
		tverdicts[ser.ID].Vectorized, tverdicts[ser.ID].Reason)

	// 4. Modeled speedups (Table 4 row).
	ores, err := pipeline.Run(ctx, mod, true, core.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	tres, err := pipeline.Run(ctx, tmod, true, core.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmodeled speedups (original / transformed):")
	ohot := mod.LoopByLine(orig.LineOf("@time-loop"))
	thot := tmod.LoopByLine(trans.LineOf("@time-loop"))
	for _, m := range simd.Machines() {
		ot := simd.LoopTime(mod, ores, verdicts, m, ohot.ID)
		tt := simd.LoopTime(tmod, tres, tverdicts, m, thot.ID)
		fmt.Printf("  %-22s %.2fx\n", m.Name, ot/tt)
	}
}
