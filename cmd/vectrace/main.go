// Command vectrace is the reproduction's command-line front end: it
// compiles MiniC programs, executes them under instrumentation, and runs
// the paper's dynamic vectorization-potential analysis plus the supporting
// static analyses.
//
// Usage:
//
//	vectrace run file.c              execute and print program output
//	vectrace ir file.c               dump the VIR module
//	vectrace profile file.c          hot-loop cycle profile (HPCToolkit stand-in)
//	vectrace vectorize file.c        static auto-vectorizer verdicts (icc stand-in)
//	vectrace analyze file.c -line N  dynamic analysis of the loop on line N
//	                                 (-instance -1 analyzes every dynamic
//	                                 region; -workers sets the pool size)
//	vectrace rank file.c             rank hot loops by unexploited potential
//	vectrace annotate file.c         per-line vectorization-potential listing
//	vectrace tree file.c             run-time loop tree with profile + verdicts
//	vectrace record file.c -o t.vtr  stream the execution trace to disk
//	                                 ("trace" is the legacy alias)
//	vectrace speedup a.c b.c         verify equivalence, model the speedup
//
// Recording streams VTR1 events to disk as the program executes, and
// "analyze -trace file.vtr -line N" replays regions from disk one at a
// time, so neither side ever materializes the full trace in memory.
// "record -format vtr2" instead writes the indexed, compressed VTR2
// container (block-compressed events plus a region index in the footer);
// analyze sniffs the format, seeks straight to the requested -instance
// through the index, and fans "-instance -1" region scans across
// -scan-workers. Old VTR1 files keep working unchanged.
//
// Profiling the analysis itself: analyze accepts -cpuprofile and
// -memprofile (pprof format) and -exectrace (go tool trace format); the
// profile brackets compilation, tracing, and analysis. The execution-trace
// flag is -exectrace here because -trace names the input trace file.
//
// Failure surface: analyze accepts -timeout, a wall-clock budget enforced
// by cooperative cancellation through the interpreter, region feed, and
// analysis pool; on expiry the error wraps context.DeadlineExceeded. The
// process exits 1 on analysis errors (corrupt traces name the byte offset
// and region index) and 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/diag"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/opt"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/simd"
	"github.com/example/vectrace/internal/staticvec"
	"github.com/example/vectrace/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vectrace:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks errors caused by the command line itself (unknown
// subcommand, bad flags) rather than by the analysis; they exit with status
// 2, following the convention the flag package's ExitOnError mode uses,
// while analysis failures exit 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// exitCode maps an error to the process exit status: 2 for usage errors,
// 1 for everything else.
func exitCode(err error) int {
	var ue usageError
	if errors.As(err, &ue) {
		return 2
	}
	return 1
}

// parseFlags runs fs.Parse and classifies a failure as a usage error.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}

func usage() error {
	return usageError{fmt.Errorf("usage: vectrace {run|ir|profile|vectorize|analyze|rank|annotate|tree|record|trace|speedup} file.c [flags]")}
}

func run(args []string) error {
	if len(args) < 2 {
		return usage()
	}
	cmd, file := args[0], args[1]
	rest := args[2:]

	if cmd == "speedup" {
		return speedupCmd(file, rest)
	}

	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	if cmd == "analyze" {
		// analyze owns its compilation: the front end must run inside the
		// observability context so -stats and -exectrace see the parse,
		// check, and lower stages.
		return analyzeCmd(file, string(src), rest)
	}
	mod, err := pipeline.Compile(file, string(src))
	if err != nil {
		return err
	}

	switch cmd {
	case "run":
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		optimize := fs.Bool("O", false, "run constant folding, branch simplification, and DCE first")
		if err := parseFlags(fs, rest); err != nil {
			return err
		}
		if *optimize {
			opt.Optimize(mod)
		}
		res, err := pipeline.Run(context.Background(), mod, false, core.Budget{})
		if err != nil {
			return err
		}
		for _, v := range res.Output {
			fmt.Printf("%g\n", v)
		}
		fmt.Printf("# %d instructions, %d simulated cycles, %d fp ops\n",
			res.Steps, res.Cycles, res.FPOps)
		return nil

	case "ir":
		fmt.Print(mod.String())
		return nil

	case "profile":
		fs := flag.NewFlagSet("profile", flag.ContinueOnError)
		threshold := fs.Float64("threshold", 10, "hot-loop cycle percentage threshold")
		if err := parseFlags(fs, rest); err != nil {
			return err
		}
		res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
		if err != nil {
			return err
		}
		verdicts := staticvec.AnalyzeModule(mod)
		prof := profile.Build(mod, res, verdicts)
		fmt.Printf("%-24s %8s %10s %8s %9s\n", "loop", "line", "cycles%", "fp-ops", "packed%")
		for _, st := range prof.Hot(*threshold) {
			fmt.Printf("%-24s %8d %9.1f%% %8d %8.1f%%\n",
				st.Func, st.Line, st.PercentCycles, st.FPOps, st.PercentPacked())
		}
		return nil

	case "vectorize":
		verdicts := staticvec.AnalyzeModule(mod)
		for _, lm := range mod.Loops {
			v, ok := verdicts[lm.ID]
			if !ok {
				continue // not innermost
			}
			status := "NOT VECTORIZED: " + v.Reason
			if v.Vectorized {
				status = "VECTORIZED"
				if v.Reduction {
					status += " (reduction)"
				}
			}
			fmt.Printf("%s:%d (%s): %s\n", file, lm.Line, lm.Func, status)
		}
		return nil

	case "annotate":
		fs := flag.NewFlagSet("annotate", flag.ContinueOnError)
		relax := fs.Bool("relax-reductions", false, "ignore reduction-carried dependences")
		if err := parseFlags(fs, rest); err != nil {
			return err
		}
		_, tr, err := pipeline.Trace(context.Background(), mod, core.Budget{})
		if err != nil {
			return err
		}
		anns, err := report.AnnotateSource(tr, core.Options{RelaxReductions: *relax})
		if err != nil {
			return err
		}
		fmt.Print(report.RenderAnnotatedSource(string(src), anns))
		return nil

	case "tree":
		res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
		if err != nil {
			return err
		}
		roots := report.LoopTree(mod, res, staticvec.AnalyzeModule(mod))
		fmt.Print(report.RenderLoopTree(roots))
		return nil

	case "rank":
		fs := flag.NewFlagSet("rank", flag.ContinueOnError)
		threshold := fs.Float64("threshold", 10, "hot-loop cycle percentage threshold")
		if err := parseFlags(fs, rest); err != nil {
			return err
		}
		res, tr, err := pipeline.Trace(context.Background(), mod, core.Budget{})
		if err != nil {
			return err
		}
		rows, err := report.RankOpportunities(mod, res, tr, *threshold)
		if err != nil {
			return err
		}
		fmt.Print(report.RenderOpportunities(rows))
		return nil

	case "record", "trace":
		// "record" streams events to disk as the program runs — the trace
		// is never materialized in memory. "trace" is the legacy name for
		// the same operation. -format vtr2 writes the indexed, compressed
		// container (seekable regions, parallel scanning); the default
		// stays vtr1 so existing consumers keep working.
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		out := fs.String("o", "trace.vtr", "output trace file")
		var tf diag.TraceFormat
		tf.Register(fs, "format", trace.FormatVTR1, false)
		if err := parseFlags(fs, rest); err != nil {
			return err
		}
		if err := tf.Validate(false); err != nil {
			return usageError{err}
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		res, err := pipeline.Record(context.Background(), mod, f, core.Budget{}, tf.Format, tf.ContainerOptions())
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d events to %s (%s)\n", res.Steps, *out, tf.Format)
		return nil
	}
	return usage()
}

// analyzeCmd is the "analyze" subcommand. Profiling (-cpuprofile,
// -memprofile, -exectrace) brackets the whole analysis, so the body runs in
// a closure and the profilers are flushed on every exit path. The
// execution-trace flag is -exectrace because -trace already names the
// input-trace file here. Observability (-stats, -progress, -debug-addr)
// brackets the same scope: the recorder rides the context through
// compilation, tracing, scanning, and analysis, and the RunStats document
// is written after the profilers stop.
func analyzeCmd(file, src string, rest []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	line := fs.Int("line", 0, "source line of the loop to analyze")
	instance := fs.Int("instance", 0, "which dynamic execution of the loop to analyze (-1 = all)")
	relax := fs.Bool("relax-reductions", false, "ignore reduction-carried dependences")
	compare := fs.Bool("baselines", false, "also run the Kumar critical-path baseline")
	traceFile := fs.String("trace", "", "analyze a previously saved trace instead of re-executing")
	intOps := fs.Bool("int-ops", false, "also characterize integer add/sub/mul")
	workers := fs.Int("workers", 0, "analysis worker count (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit the canonical analysis JSON instead of text (requires -line; excludes -baselines)")
	var tf diag.TraceFormat
	tf.Register(fs, "trace-format", "auto", true)
	var prof diag.Flags
	prof.Register(fs, "exectrace")
	var timeout diag.Timeout
	timeout.Register(fs)
	obsFlags := diag.Obs{Tool: "vectrace analyze"}
	obsFlags.Register(fs)
	if err := parseFlags(fs, rest); err != nil {
		return err
	}
	opts := ddg.Options{CharacterizeInts: *intOps}
	copts := core.Options{RelaxReductions: *relax, Workers: *workers}
	if err := tf.Validate(true); err != nil {
		return usageError{err}
	}
	if *jsonOut {
		// The JSON contract covers region analyses (internal/report); the
		// whole-program graph and the Kumar baseline stay text-only.
		if *line == 0 {
			return usageError{fmt.Errorf("-json requires -line")}
		}
		if *compare {
			return usageError{fmt.Errorf("-json and -baselines are mutually exclusive")}
		}
	}
	if err := obsFlags.Start(); err != nil {
		return err
	}
	rec := obsFlags.Recorder()
	ctx, cancel := timeout.Context(obsFlags.Context(context.Background()))
	defer cancel()

	if err := prof.Start(); err != nil {
		obsFlags.Stop(nil)
		return err
	}
	err := func() error {
		mod, err := pipeline.CompileCtx(ctx, file, src)
		if err != nil {
			return err
		}
		// printRegions prints every region's report. A region that failed
		// prints a one-line diagnostic in place of its report — the
		// remaining regions still print in full, and the joined error
		// (returned by the caller) makes the exit status nonzero.
		// Region failures are additionally condensed into one stderr line
		// (count, first error, corrupt byte offset when the trace itself was
		// damaged), so a long report still ends with a usable diagnostic.
		printRegions := func(regs []pipeline.RegionReport, err error) {
			_, sp := obs.StartSpan(ctx, "report")
			defer sp.End()
			if *jsonOut {
				// Canonical JSON shared with vectraced: the service's job
				// results are byte-identical to this output.
				js, jerr := report.RegionsJSON(regs)
				if jerr != nil {
					fmt.Fprintln(os.Stderr, "vectrace: analyze:", jerr)
					return
				}
				os.Stdout.Write(js)
				return
			}
			for _, rr := range regs {
				fmt.Printf("== region %d/%d: %d events ==\n", rr.Index+1, len(regs), rr.Events)
				if rr.Err != nil {
					fmt.Printf("error: %v\n", rr.Err)
					continue
				}
				fmt.Print(rr.Report.String())
			}
			failed := 0
			var first error
			for _, rr := range regs {
				if rr.Err != nil {
					failed++
					if first == nil {
						first = rr.Err
					}
				}
			}
			off, corrupt := trace.CorruptOffset(err)
			if failed == 0 && !corrupt {
				return
			}
			summary := fmt.Sprintf("vectrace: analyze: %d/%d regions failed", failed, len(regs))
			if first != nil {
				summary += fmt.Sprintf("; first: %v", first)
			}
			if corrupt {
				summary += fmt.Sprintf("; trace corrupt at byte offset %d", off)
			}
			fmt.Fprintln(os.Stderr, summary)
		}
		printKumar := func(g *ddg.Graph) {
			p := baseline.Kumar(g)
			fmt.Printf("kumar: critical path %d, avg parallelism %.1f\n",
				p.CriticalPath, p.AvgParallelism)
		}
		// openTrace opens and format-sniffs the input trace, with its bytes
		// counted into the recorder (and its size recorded, for percent-done
		// and ETA). VTR1 files stream through the classic decoder; VTR2 files
		// expose their footer index for seeks and parallel scanning, falling
		// back to a sequential salvage walk (with a warning) when the index
		// is damaged.
		openTrace := func() (*os.File, *trace.Opened, error) {
			f, err := os.Open(*traceFile)
			if err != nil {
				return nil, nil, err
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			rec.Set(obs.TraceBytesTotal, fi.Size())
			o, err := trace.OpenTrace(f, fi.Size(), rec)
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			if err := tf.CheckOpened(o); err != nil {
				f.Close()
				return nil, nil, usageError{err}
			}
			if o.IndexErr != nil {
				fmt.Fprintf(os.Stderr, "vectrace: analyze: trace index unusable (%v); scanning sequentially\n", o.IndexErr)
			}
			return f, o, nil
		}

		// loadTrace materializes the whole trace, live or from the file:
		// only the graph views (-line 0 and -baselines) need it.
		loadTrace := func() (*trace.Trace, error) {
			if *traceFile == "" {
				_, tr, err := pipeline.Trace(ctx, mod, core.Budget{})
				return tr, err
			}
			f, o, err := openTrace()
			if err != nil {
				return nil, err
			}
			defer f.Close()
			events, err := trace.ReadAll(o.Source())
			if err != nil {
				return nil, err
			}
			return &trace.Trace{Module: mod, Events: events}, nil
		}

		if *line == 0 {
			// Whole-program analysis: the whole trace is one region of the
			// stream kernel. Only the Kumar baseline needs its graph.
			tr, err := loadTrace()
			if err != nil {
				return err
			}
			rep, err := pipeline.AnalyzeRegion(ctx, tr, opts, copts)
			if err != nil {
				return err
			}
			_, sp := obs.StartSpan(ctx, "report")
			defer sp.End()
			fmt.Print(rep.String())
			if *compare {
				g, err := ddg.BuildOpts(tr, opts)
				if err != nil {
					return err
				}
				printKumar(g)
			}
			return nil
		}

		// Region analysis, the paper's workflow, through the same call the
		// vectraced job engine makes. Live runs and sequential trace files
		// stream, so memory stays bounded by the open regions; indexed VTR2
		// containers additionally seek and fan out (-scan-workers).
		source := pipeline.Source{Module: mod}
		var tr *trace.Trace
		if *compare && *instance >= 0 {
			// The Kumar baseline needs the region's graph: capture the
			// trace once and serve both the analysis and the graph from it.
			var err error
			if tr, err = loadTrace(); err != nil {
				return err
			}
			source.Events = &trace.SliceSource{Events: tr.Events}
		} else if *traceFile != "" {
			f, o, err := openTrace()
			if err != nil {
				return err
			}
			defer f.Close()
			source.Trace = o
		}
		regs, err := pipeline.Analyze(ctx, source, pipeline.Spec{
			Line: *line, Instances: []int{*instance}, DDG: opts, Core: copts, ScanWorkers: tf.ScanWorkers,
		})
		if *instance < 0 || (*jsonOut && len(regs) > 0) {
			printRegions(regs, err)
			return err
		}
		if err != nil {
			return err
		}
		_, sp := obs.StartSpan(ctx, "report")
		fmt.Print(regs[0].Report.String())
		sp.End()
		if tr != nil {
			region := tr.Regions(mod.LoopByLine(*line).ID)[*instance]
			g, err := ddg.BuildOpts(tr.Slice(region), opts)
			if err != nil {
				return err
			}
			printKumar(g)
		}
		return nil
	}()
	if serr := prof.Stop(); err == nil {
		err = serr
	}
	if off, ok := trace.CorruptOffset(err); ok {
		rec.SetCorruptByte(off)
	}
	config := map[string]any{
		"file": file, "line": *line, "instance": *instance, "workers": copts.WorkerCount(),
		"relax_reductions": *relax, "int_ops": *intOps,
	}
	if *traceFile != "" {
		config["trace"] = *traceFile
		config["trace_format"] = tf.Format
		config["scan_workers"] = tf.ScanWorkers
	}
	if serr := obsFlags.Stop(config); err == nil {
		err = serr
	}
	return err
}

// speedupCmd models the §4.4 before/after workflow: run the original and a
// transformed version, check they compute the same outputs, and report the
// modeled time and speedup on the three Table 4 machines.
func speedupCmd(origFile string, rest []string) error {
	if len(rest) < 1 {
		return fmt.Errorf("usage: vectrace speedup original.c transformed.c")
	}
	transFile := rest[0]

	type side struct {
		mod      *ir.Module
		res      *interp.Result
		verdicts map[int]staticvec.Verdict
	}
	load := func(file string) (*side, error) {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		mod, err := pipeline.Compile(file, string(src))
		if err != nil {
			return nil, err
		}
		res, err := pipeline.Run(context.Background(), mod, true, core.Budget{})
		if err != nil {
			return nil, err
		}
		return &side{mod: mod, res: res, verdicts: staticvec.AnalyzeModule(mod)}, nil
	}
	orig, err := load(origFile)
	if err != nil {
		return err
	}
	trans, err := load(transFile)
	if err != nil {
		return err
	}

	// Equivalence check on printed outputs.
	if len(orig.res.Output) != len(trans.res.Output) {
		return fmt.Errorf("speedup: versions print %d vs %d values — not equivalent",
			len(orig.res.Output), len(trans.res.Output))
	}
	for i := range orig.res.Output {
		a, b := orig.res.Output[i], trans.res.Output[i]
		tol := 1e-9 * (1 + math.Abs(a))
		if math.Abs(a-b) > tol {
			return fmt.Errorf("speedup: output %d differs: %v vs %v — versions are not equivalent", i, a, b)
		}
	}
	fmt.Printf("outputs match (%d values)\n\n", len(orig.res.Output))

	fmt.Printf("%-22s %14s %14s %9s\n", "machine", "original", "transformed", "speedup")
	for _, m := range simd.Machines() {
		ot := simd.SimulateTime(orig.mod, orig.res, orig.verdicts, m)
		tt := simd.SimulateTime(trans.mod, trans.res, trans.verdicts, m)
		fmt.Printf("%-22s %14.0f %14.0f %8.2fx\n", m.Name, ot, tt, ot/tt)
	}
	return nil
}
