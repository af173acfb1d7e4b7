// Package report regenerates the paper's evaluation artifacts — Tables 1–4
// and Figures 1–2 — from the reproduction's kernels, returning structured
// rows plus text renderings in the paper's column layout.
package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/simd"
	"github.com/example/vectrace/internal/staticvec"
)

// LoopAnalysis bundles everything the tables need about one analyzed loop.
type LoopAnalysis struct {
	PercentCycles  float64
	PercentPacked  float64
	AvgConcurrency float64
	UnitPct        float64
	UnitSize       float64
	NonUnitPct     float64
	NonUnitSize    float64
	Report         *core.Report
}

// samplePicks returns the close indices of the regions a table row samples
// out of a loop's n dynamic executions, the way the paper "randomly chose
// several instances of the loop, analyzed each corresponding subtrace ...
// and chose one representative subtrace to be included in the
// measurements". Sampling is deterministic: the first, middle, and last
// regions, covering warm-up and steady-state executions.
func samplePicks(n int) []int {
	picks := []int{0}
	if n > 2 {
		picks = append(picks, n/2)
	}
	if n > 1 {
		picks = append(picks, n-1)
	}
	return picks
}

// analyzeKernelLoop compiles, profiles, and analyzes one marked loop of a
// kernel without capturing its trace. A plain profiling run yields both
// the cycle profile and the loop's region count; one live traced run then
// feeds only the sampled regions to their stream kernels, and the row
// reports the median sample by candidate-operation count.
func analyzeKernelLoop(ctx context.Context, k kernels.Kernel, marker string, opts core.Options) (*LoopAnalysis, error) {
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	res, err := pipeline.Run(ctx, mod, true, core.Budget{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	verdicts := staticvec.AnalyzeModule(mod)
	prof := profile.Build(mod, res, verdicts)

	line, err := k.FindLine(marker)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	lm := mod.LoopByLine(line)
	if lm == nil {
		return nil, fmt.Errorf("%s: no loop on line %d (marker %s)", k.Name, line, marker)
	}
	n := res.LoopEntries[lm.ID]
	if n == 0 {
		return nil, fmt.Errorf("%s: loop L%d never executed", k.Name, lm.ID)
	}
	regs, err := pipeline.Analyze(ctx, pipeline.Source{Module: mod},
		pipeline.Spec{Line: line, Instances: samplePicks(int(n)), Core: opts})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	reps := make([]*core.Report, len(regs))
	for i := range regs {
		reps[i] = regs[i].Report
	}
	sort.SliceStable(reps, func(i, j int) bool {
		return reps[i].TotalCandidateOps < reps[j].TotalCandidateOps
	})
	rep := reps[len(reps)/2]

	la := &LoopAnalysis{
		AvgConcurrency: rep.AvgConcurrency,
		UnitPct:        rep.UnitVecOpsPct,
		UnitSize:       rep.UnitAvgVecSize,
		NonUnitPct:     rep.NonUnitVecOpsPct,
		NonUnitSize:    rep.NonUnitAvgVecSize,
		Report:         rep,
	}
	if st := prof.Loop(lm.ID); st != nil {
		la.PercentCycles = st.PercentCycles
		la.PercentPacked = st.PercentPacked()
	}
	return la, nil
}

// ---------------------------------------------------------------- Table 1

// T1Row is one row of Table 1: a SPEC benchmark hot loop.
type T1Row struct {
	Benchmark string
	Loop      string
	LoopAnalysis
}

// Table1 regenerates Table 1 over the SPEC-shaped kernel suite.
func Table1() ([]T1Row, error) { return Table1Opts(core.Options{}) }

// Table1Opts regenerates Table 1 with explicit analysis options. Each row's
// kernel is compiled, traced, and analyzed independently, so the rows fan
// out across opts.WorkerCount() workers; results are merged by row index,
// keeping the table identical to a sequential regeneration.
func Table1Opts(opts core.Options) ([]T1Row, error) {
	return Table1Ctx(context.Background(), opts)
}

// Table1Ctx is Table1Opts with cooperative cancellation threaded through
// every row's trace and analysis.
func Table1Ctx(ctx context.Context, opts core.Options) ([]T1Row, error) {
	type job struct {
		bench, label, marker string
		kernel               kernels.Kernel
	}
	var jobs []job
	for _, b := range kernels.SPEC() {
		for _, target := range b.Targets {
			jobs = append(jobs, job{b.Name, target.Label, target.Marker, b.Kernel})
		}
	}
	rows := make([]T1Row, len(jobs))
	inner := opts
	inner.Workers = 1
	err := core.ParallelFor(ctx, len(jobs), opts.WorkerCount(), func(i int) error {
		la, err := analyzeKernelLoop(ctx, jobs[i].kernel, jobs[i].marker, inner)
		if err != nil {
			return err
		}
		rows[i] = T1Row{Benchmark: jobs[i].bench, Loop: jobs[i].label, LoopAnalysis: *la}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable1 renders rows in the paper's column layout.
func RenderTable1(rows []T1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-28s %8s %8s %12s | %8s %9s | %8s %9s\n",
		"Benchmark", "Loop", "Cycles%", "Packed%", "AvgConcur",
		"UVecOp%", "UVecSize", "NVecOp%", "NVecSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-28s %7.1f%% %7.1f%% %12.1f | %7.1f%% %9.1f | %7.1f%% %9.1f\n",
			r.Benchmark, r.Loop, r.PercentCycles, r.PercentPacked, r.AvgConcurrency,
			r.UnitPct, r.UnitSize, r.NonUnitPct, r.NonUnitSize)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 2

// T2Row is one row of Table 2: a stand-alone kernel.
type T2Row struct {
	Benchmark string
	LoopAnalysis
}

// Table2 regenerates Table 2: the 2-D Gauss-Seidel stencil and the 2-D PDE
// grid solver.
func Table2() ([]T2Row, error) { return Table2Opts(core.Options{}) }

// Table2Opts regenerates Table 2 with explicit analysis options, fanning
// the two kernels out across opts.WorkerCount() workers.
func Table2Opts(opts core.Options) ([]T2Row, error) {
	return Table2Ctx(context.Background(), opts)
}

// Table2Ctx is Table2Opts with cooperative cancellation.
func Table2Ctx(ctx context.Context, opts core.Options) ([]T2Row, error) {
	specs := []struct {
		name   string
		kernel kernels.Kernel
		marker string
	}{
		{"2-D Gauss-Seidel Stencil", kernels.GaussSeidel(32, 2), "@time-loop"},
		{"2-D PDE Grid Solver", kernels.PDESolver(16, 4), "@grid-j"},
	}
	rows := make([]T2Row, len(specs))
	inner := opts
	inner.Workers = 1
	err := core.ParallelFor(ctx, len(specs), opts.WorkerCount(), func(i int) error {
		la, err := analyzeKernelLoop(ctx, specs[i].kernel, specs[i].marker, inner)
		if err != nil {
			return err
		}
		rows[i] = T2Row{Benchmark: specs[i].name, LoopAnalysis: *la}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable2 renders Table 2.
func RenderTable2(rows []T2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %8s %12s | %8s %9s | %8s %9s\n",
		"Benchmark", "Packed%", "AvgConcur", "UVecOp%", "UVecSize", "NVecOp%", "NVecSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %7.1f%% %12.1f | %7.1f%% %9.1f | %7.1f%% %9.1f\n",
			r.Benchmark, r.PercentPacked, r.AvgConcurrency,
			r.UnitPct, r.UnitSize, r.NonUnitPct, r.NonUnitSize)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 3

// T3Row is one row of Table 3: one code style of one UTDSP kernel.
type T3Row struct {
	Benchmark string
	Style     string // "Array" or "Pointer"
	LoopAnalysis
}

// Table3 regenerates Table 3 over the UTDSP pairs.
func Table3() ([]T3Row, error) { return Table3Opts(core.Options{}) }

// Table3Opts regenerates Table 3 with explicit analysis options. The
// Array/Pointer variants of every UTDSP pair are flattened into one job list
// and fanned out across opts.WorkerCount() workers, merged by job index.
func Table3Opts(opts core.Options) ([]T3Row, error) {
	return Table3Ctx(context.Background(), opts)
}

// Table3Ctx is Table3Opts with cooperative cancellation.
func Table3Ctx(ctx context.Context, opts core.Options) ([]T3Row, error) {
	type job struct {
		bench, style string
		kernel       kernels.Kernel
	}
	var jobs []job
	for _, pair := range kernels.UTDSP() {
		jobs = append(jobs, job{pair.Name, "Array", pair.Array})
		jobs = append(jobs, job{pair.Name, "Pointer", pair.Pointer})
	}
	rows := make([]T3Row, len(jobs))
	inner := opts
	inner.Workers = 1
	err := core.ParallelFor(ctx, len(jobs), opts.WorkerCount(), func(i int) error {
		la, err := analyzeKernelLoop(ctx, jobs[i].kernel, "@hot", inner)
		if err != nil {
			return err
		}
		rows[i] = T3Row{Benchmark: jobs[i].bench, Style: jobs[i].style, LoopAnalysis: *la}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable3 renders Table 3.
func RenderTable3(rows []T3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %8s %12s | %8s %9s | %8s %9s\n",
		"Benchmark", "Type", "Packed%", "AvgConcur", "UVecOp%", "UVecSize", "NVecOp%", "NVecSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %7.1f%% %12.1f | %7.1f%% %9.1f | %7.1f%% %9.1f\n",
			r.Benchmark, r.Style, r.PercentPacked, r.AvgConcurrency,
			r.UnitPct, r.UnitSize, r.NonUnitPct, r.NonUnitSize)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 4

// T4Row is one case study × machine cell of Table 4.
type T4Row struct {
	Benchmark string
	Machine   string
	// OriginalTime and TransformedTime are modeled cycle totals for the
	// measured loop subtree.
	OriginalTime    float64
	TransformedTime float64
	Speedup         float64
}

// caseRun holds one executed case-study side.
type caseRun struct {
	mod      *ir.Module
	res      *interp.Result
	verdicts map[int]staticvec.Verdict
}

func runCase(ctx context.Context, k kernels.Kernel) (*caseRun, error) {
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Run(ctx, mod, true, core.Budget{})
	if err != nil {
		return nil, err
	}
	return &caseRun{mod: mod, res: res, verdicts: staticvec.AnalyzeModule(mod)}, nil
}

// loopTimeAt prices the loop subtree rooted at the loop on the given line.
func (c *caseRun) loopTimeAt(line int, m simd.Machine) (float64, error) {
	lm := c.mod.LoopByLine(line)
	if lm == nil {
		return 0, fmt.Errorf("no loop on line %d", line)
	}
	return simd.LoopTime(c.mod, c.res, c.verdicts, m, lm.ID), nil
}

// Table4 regenerates Table 4: for each §4.4 case study, the modeled time of
// the original and manually transformed versions on the three machines.
func Table4() ([]T4Row, error) { return Table4Ctx(context.Background()) }

// Table4Ctx is Table4 with cooperative cancellation threaded through each
// case study's instrumented runs.
func Table4Ctx(ctx context.Context) ([]T4Row, error) {
	var rows []T4Row
	for _, cs := range kernels.CaseStudies() {
		orig, err := runCase(ctx, cs.Original)
		if err != nil {
			return nil, fmt.Errorf("%s original: %w", cs.Name, err)
		}
		tran, err := runCase(ctx, cs.Transformed)
		if err != nil {
			return nil, fmt.Errorf("%s transformed: %w", cs.Name, err)
		}
		origLine, err := cs.Original.FindLine(cs.HotMarker)
		if err != nil {
			return nil, fmt.Errorf("%s original: %w", cs.Name, err)
		}
		tranLine, err := cs.Transformed.FindLine(cs.HotMarker)
		if err != nil {
			return nil, fmt.Errorf("%s transformed: %w", cs.Name, err)
		}
		for _, m := range simd.Machines() {
			ot, err := orig.loopTimeAt(origLine, m)
			if err != nil {
				return nil, fmt.Errorf("%s original: %w", cs.Name, err)
			}
			tt, err := tran.loopTimeAt(tranLine, m)
			if err != nil {
				return nil, fmt.Errorf("%s transformed: %w", cs.Name, err)
			}
			rows = append(rows, T4Row{
				Benchmark: cs.Name, Machine: m.Name,
				OriginalTime: ot, TransformedTime: tt, Speedup: ot / tt,
			})
		}
	}
	return rows, nil
}

// RenderTable4 renders Table 4.
func RenderTable4(rows []T4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-22s %14s %14s %9s\n",
		"Benchmark", "Machine", "OrigCycles", "TransCycles", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-22s %14.0f %14.0f %8.2fx\n",
			r.Benchmark, r.Machine, r.OriginalTime, r.TransformedTime, r.Speedup)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figures

// FigureRow describes one analysis' partitioning of a statement's dynamic
// instances, for the Figure 1 / Figure 2 comparisons.
type FigureRow struct {
	Analysis   string // "Algorithm 1", "Kumar", "Larus"
	Statement  string // "S1" or "S2"
	Partitions int
	AvgSize    float64
	MaxSize    int
}

// Figure1 regenerates the Figure 1 comparison on Listing 1: Algorithm 1's
// partitions of S2 versus Kumar-style critical-path partitions.
func Figure1(n int) ([]FigureRow, error) {
	return figureRows(kernels.Listing1(n), map[string]string{"S1": "@S1", "S2": "@S2"}, "")
}

// Figure2 regenerates the Figure 2 comparison on Listing 2: Algorithm 1
// versus the Larus-style loop-level model.
func Figure2(n int) ([]FigureRow, error) {
	return figureRows(kernels.Listing2(n), map[string]string{"S1": "@S1", "S2": "@S2"}, "@main-loop")
}

// RenderFigure renders figure rows.
func RenderFigure(rows []FigureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-6s %10s %9s %8s\n", "Analysis", "Stmt", "Partitions", "AvgSize", "MaxSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-6s %10d %9.1f %8d\n", r.Analysis, r.Statement, r.Partitions, r.AvgSize, r.MaxSize)
	}
	return b.String()
}

func figureRows(k kernels.Kernel, stmts map[string]string, larusMarker string) ([]FigureRow, error) {
	mod, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		return nil, err
	}
	g, err := ddg.Build(tr)
	if err != nil {
		return nil, err
	}

	// Resolve each labeled statement to its candidate instruction.
	instrOf := make(map[string]int32)
	for label, marker := range stmts {
		line, err := k.FindLine(marker)
		if err != nil {
			return nil, err
		}
		found := int32(-1)
		for _, id := range mod.CandidateIDs(-1) {
			if mod.InstrAt(id).Pos.Line == line {
				found = id
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%s: no candidate instruction on line %d (%s)", k.Name, line, label)
		}
		instrOf[label] = found
	}

	summarize := func(analysis, label string, groups [][]int32) FigureRow {
		row := FigureRow{Analysis: analysis, Statement: label, Partitions: len(groups)}
		total := 0
		for _, grp := range groups {
			total += len(grp)
			if len(grp) > row.MaxSize {
				row.MaxSize = len(grp)
			}
		}
		if len(groups) > 0 {
			row.AvgSize = float64(total) / float64(len(groups))
		}
		return row
	}

	var rows []FigureRow
	labels := make([]string, 0, len(instrOf))
	for label := range instrOf {
		labels = append(labels, label)
	}
	sort.Strings(labels)

	kumarTS := baseline.KumarTimestamps(g)
	for _, label := range labels {
		id := instrOf[label]
		parts := core.Partitions(g, id, core.Options{})
		groups := make([][]int32, len(parts))
		for i := range parts {
			groups[i] = parts[i].Nodes
		}
		rows = append(rows, summarize("Algorithm 1", label, groups))
		rows = append(rows, summarize("Kumar", label, baseline.PartitionsByTimestamp(g, id, kumarTS)))
	}

	if larusMarker != "" {
		larusLine, err := k.FindLine(larusMarker)
		if err != nil {
			return nil, err
		}
		lm := mod.LoopByLine(larusLine)
		if lm == nil {
			return nil, fmt.Errorf("%s: no loop at %s", k.Name, larusMarker)
		}
		regions := tr.Regions(lm.ID)
		if len(regions) == 0 {
			return nil, fmt.Errorf("%s: loop %s never ran", k.Name, larusMarker)
		}
		rg, err := ddg.Build(tr.Slice(regions[0]))
		if err != nil {
			return nil, err
		}
		lr := baseline.Larus(rg, lm.ID)
		// Partition statement instances by Larus finish time, resolving
		// instruction IDs inside the region graph.
		for _, label := range labels {
			id := instrOf[label]
			rows = append(rows, summarize("Larus", label,
				baseline.PartitionsByTimestamp(rg, id, lr.Finish)))
		}
	}
	return rows, nil
}
