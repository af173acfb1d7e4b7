// Command vecbench regenerates every table and figure from the paper's
// evaluation section (§4) and prints them in the paper's column layout.
//
// Usage:
//
//	vecbench             regenerate everything
//	vecbench -table 1    one table (1–4)
//	vecbench -figure 2   one figure (1–2)
//	vecbench -workers 4  table rows analyzed by a 4-worker pool
//
// Performance of the trace formats and the service is measured by the
// benchmark suite in bench/, not here.
//
// Profiling: -cpuprofile, -memprofile, and -trace write the standard
// runtime profiles for the whole run (view with go tool pprof / trace).
// A wall-clock budget for the whole regeneration comes from -timeout; on
// expiry the analyses stop cooperatively and the tool exits nonzero with an
// error wrapping context.DeadlineExceeded.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/diag"
	"github.com/example/vectrace/internal/report"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1-4)")
	figure := flag.Int("figure", 0, "regenerate only this figure (1-2)")
	n := flag.Int("n", 16, "problem size for the figures")
	csvOut := flag.Bool("csv", false, "emit machine-readable CSV instead of the paper layout")
	workers := flag.Int("workers", 0, "analysis worker count (0 = GOMAXPROCS)")
	var prof diag.Flags
	prof.Register(flag.CommandLine, "trace")
	var timeout diag.Timeout
	timeout.Register(flag.CommandLine)
	obsFlags := diag.Obs{Tool: "vecbench"}
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if err := obsFlags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "vecbench:", err)
		os.Exit(1)
	}
	if err := prof.Start(); err != nil {
		obsFlags.Stop(nil)
		fmt.Fprintln(os.Stderr, "vecbench:", err)
		os.Exit(1)
	}
	ctx, cancel := timeout.Context(obsFlags.Context(context.Background()))
	defer cancel()
	opts := core.Options{Workers: *workers}
	var err error
	if *csvOut {
		err = runCSV(ctx, *table, *figure, *n, opts)
	} else {
		err = run(ctx, *table, *figure, *n, opts)
	}
	if serr := prof.Stop(); err == nil {
		err = serr
	}
	config := map[string]any{
		"table": *table, "figure": *figure, "n": *n,
		"workers": opts.WorkerCount(), "csv": *csvOut,
	}
	if serr := obsFlags.Stop(config); err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vecbench:", err)
		os.Exit(1)
	}
}

// runCSV emits the requested artifacts as CSV on stdout, one artifact per
// invocation (use -table/-figure to select; default regenerates Table 1).
func runCSV(ctx context.Context, table, figure, n int, opts core.Options) error {
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

	switch {
	case figure == 1 || figure == 2:
		var rows []report.FigureRow
		var err error
		if figure == 1 {
			rows, err = report.Figure1(n)
		} else {
			rows, err = report.Figure2(n)
		}
		if err != nil {
			return err
		}
		w.Write([]string{"analysis", "statement", "partitions", "avg_size", "max_size"})
		for _, r := range rows {
			w.Write([]string{r.Analysis, r.Statement, strconv.Itoa(r.Partitions), f(r.AvgSize), strconv.Itoa(r.MaxSize)})
		}
	case table == 2:
		rows, err := report.Table2Ctx(ctx, opts)
		if err != nil {
			return err
		}
		w.Write([]string{"benchmark", "packed_pct", "avg_concurrency", "unit_pct", "unit_size", "nonunit_pct", "nonunit_size"})
		for _, r := range rows {
			w.Write([]string{r.Benchmark, f(r.PercentPacked), f(r.AvgConcurrency), f(r.UnitPct), f(r.UnitSize), f(r.NonUnitPct), f(r.NonUnitSize)})
		}
	case table == 3:
		rows, err := report.Table3Ctx(ctx, opts)
		if err != nil {
			return err
		}
		w.Write([]string{"benchmark", "style", "packed_pct", "avg_concurrency", "unit_pct", "unit_size", "nonunit_pct", "nonunit_size"})
		for _, r := range rows {
			w.Write([]string{r.Benchmark, r.Style, f(r.PercentPacked), f(r.AvgConcurrency), f(r.UnitPct), f(r.UnitSize), f(r.NonUnitPct), f(r.NonUnitSize)})
		}
	case table == 4:
		rows, err := report.Table4Ctx(ctx)
		if err != nil {
			return err
		}
		w.Write([]string{"benchmark", "machine", "original_cycles", "transformed_cycles", "speedup"})
		for _, r := range rows {
			w.Write([]string{r.Benchmark, r.Machine, f(r.OriginalTime), f(r.TransformedTime), f(r.Speedup)})
		}
	default:
		rows, err := report.Table1Ctx(ctx, opts)
		if err != nil {
			return err
		}
		w.Write([]string{"benchmark", "loop", "cycles_pct", "packed_pct", "avg_concurrency", "unit_pct", "unit_size", "nonunit_pct", "nonunit_size"})
		for _, r := range rows {
			w.Write([]string{r.Benchmark, r.Loop, f(r.PercentCycles), f(r.PercentPacked), f(r.AvgConcurrency), f(r.UnitPct), f(r.UnitSize), f(r.NonUnitPct), f(r.NonUnitSize)})
		}
	}
	return nil
}

func run(ctx context.Context, table, figure, n int, opts core.Options) error {
	all := table == 0 && figure == 0

	if all || figure == 1 {
		rows, err := report.Figure1(n)
		if err != nil {
			return err
		}
		fmt.Printf("== Figure 1: partitions of Listing 1 (N=%d): Algorithm 1 vs Kumar ==\n", n)
		fmt.Print(report.RenderFigure(rows))
		fmt.Println()
	}
	if all || figure == 2 {
		rows, err := report.Figure2(n)
		if err != nil {
			return err
		}
		fmt.Printf("== Figure 2: partitions of Listing 2 (N=%d): Algorithm 1 vs Larus ==\n", n)
		fmt.Print(report.RenderFigure(rows))
		fmt.Println()
	}
	if all || table == 1 {
		rows, err := report.Table1Ctx(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Println("== Table 1: SPEC CFP2006 hot-loop characterization ==")
		fmt.Print(report.RenderTable1(rows))
		fmt.Println()
	}
	if all || table == 2 {
		rows, err := report.Table2Ctx(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Println("== Table 2: stand-alone computation kernels ==")
		fmt.Print(report.RenderTable2(rows))
		fmt.Println()
	}
	if all || table == 3 {
		rows, err := report.Table3Ctx(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Println("== Table 3: UTDSP array-based vs pointer-based code ==")
		fmt.Print(report.RenderTable3(rows))
		fmt.Println()
	}
	if all || table == 4 {
		rows, err := report.Table4Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Println("== Table 4: case-study speedups (modeled machines) ==")
		fmt.Print(report.RenderTable4(rows))
		fmt.Println()
	}
	return nil
}
