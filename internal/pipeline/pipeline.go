// Package pipeline wires the front end, interpreter, tracer, and analyses
// into the entry points used by the command-line tools, the service, the
// examples, and the benchmark harness: Compile a MiniC source, then
// Analyze the dynamic regions of one loop from a Source — the live
// interpreter or a recorded trace. Run, Trace, and Record cover plain
// execution, whole-trace capture, and recording to disk.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/lower"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/parser"
	"github.com/example/vectrace/internal/sema"
	"github.com/example/vectrace/internal/trace"
)

// interpConfig maps a core.Budget onto the interpreter's execution limits,
// leaving the interpreter defaults in place for unset fields.
func interpConfig(b core.Budget, tracer interp.Tracer, countLoops bool) interp.Config {
	return interp.Config{
		Tracer:          tracer,
		CountLoopCycles: countLoops,
		MaxSteps:        b.MaxSteps,
		MaxDepth:        b.MaxDepth,
		StackSize:       b.MaxStackBytes,
	}
}

// Compile parses, type-checks, and lowers a MiniC source file into a
// finalized VIR module.
func Compile(filename, src string) (*ir.Module, error) {
	return CompileCtx(context.Background(), filename, src)
}

// CompileCtx is Compile with the front-end stages recorded as observability
// spans (parse, check, lower) when ctx carries an obs.Recorder — the stages
// show up as logical regions under -exectrace and as timed spans in -stats.
// With no recorder on ctx it is byte-for-byte Compile.
func CompileCtx(ctx context.Context, filename, src string) (*ir.Module, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	prog, err := parser.Parse(filename, src)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	_, sp = obs.StartSpan(ctx, "check")
	info, err := sema.Check(prog)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	_, sp = obs.StartSpan(ctx, "lower")
	mod, err := lower.Lower(prog, info)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return mod, nil
}

// Run executes the module's main function without tracing and returns the
// execution summary (used for plain runs and cycle profiling). The budget's
// interpreter limits apply; cancellation and exhaustion surface as errors
// wrapping core.ErrCanceled and core.ErrResourceLimit respectively.
func Run(ctx context.Context, mod *ir.Module, countLoops bool, budget core.Budget) (*interp.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "interp")
	defer sp.End()
	m := interp.New(mod, interpConfig(budget, nil, countLoops))
	return m.RunContext(ctx, "main")
}

// eventTracer captures a whole trace: it appends each event straight into
// the slice the returned trace.Trace owns, so the capture holds every event
// once (an interp.TraceSink would need a second, converted copy).
type eventTracer struct {
	events []trace.Event
}

// Exec implements interp.Tracer.
func (s *eventTracer) Exec(id int32, addr int64) {
	s.events = append(s.events, trace.Event{ID: id, Addr: addr})
}

// ExecBatch implements interp.BatchTracer.
func (s *eventTracer) ExecBatch(events []interp.Event) {
	for _, ev := range events {
		s.events = append(s.events, trace.Event{ID: ev.ID, Addr: ev.Addr})
	}
}

// Trace executes the module's main function under full instrumentation,
// with the budget's interpreter limits applied, and returns both the
// execution summary and the whole captured trace. Region analyses do not
// need it (Analyze streams); the whole-program views do.
func Trace(ctx context.Context, mod *ir.Module, budget core.Budget) (*interp.Result, *trace.Trace, error) {
	ctx, sp := obs.StartSpan(ctx, "interp")
	defer sp.End()
	sink := &eventTracer{}
	m := interp.New(mod, interpConfig(budget, sink, true))
	res, err := m.RunContext(ctx, "main")
	if err != nil {
		return nil, nil, err
	}
	return res, &trace.Trace{Module: mod, Events: sink.events}, nil
}

// CompileAndTrace is Compile followed by Trace with no budget.
func CompileAndTrace(filename, src string) (*ir.Module, *interp.Result, *trace.Trace, error) {
	mod, err := Compile(filename, src)
	if err != nil {
		return nil, nil, nil, err
	}
	res, tr, err := Trace(context.Background(), mod, core.Budget{})
	if err != nil {
		return mod, nil, nil, err
	}
	return mod, res, tr, nil
}

// RegionReport pairs one dynamic region (sub-trace) of a loop with its
// analysis result.
type RegionReport struct {
	// Index is the region's position among the loop's dynamic executions.
	Index int
	// Events is the region's dynamic instruction count.
	Events int
	// Report is the §3 analysis of the region's DDG. On a per-region
	// failure it may be nil (the region's graph never built) or a degraded
	// report missing the failed candidates' rows; Err says which.
	Report *core.Report
	// Err is this region's failure, if any: one bad region records its
	// error here while the remaining regions are still analyzed. Analyze
	// additionally joins every per-region error into its returned error,
	// so a non-nil summary error is never silent.
	Err error
	// Elapsed is the wall time this region's DDG construction and analysis
	// took (set even when the region failed part-way). It is observability
	// metadata, populated only when the run carries an obs.Recorder — with
	// observability off it stays zero, so region reports from observed and
	// unobserved runs differ only in this field and no renderer prints it.
	Elapsed time.Duration
}

// AnalyzeRegion analyzes one region sub-trace — or a whole trace, for the
// whole-program views — on the stream kernel: the events are fed in trace
// order and the kernel's report returned, without building a graph. It is
// the single-region building block behind Analyze, the report package's
// representative-region sampling, and whole-program analysis. Cancellation
// is polled every 4096 events, but only from the second poll window on, so
// a candidate-free region shorter than that succeeds even on a canceled
// context, exactly like the graph reference core.AnalyzeCtx.
func AnalyzeRegion(ctx context.Context, sub *trace.Trace, dopts ddg.Options, copts core.Options) (*core.Report, error) {
	rec := obs.FromContext(ctx)
	k := core.AcquireStreamKernel(sub.Module, dopts, copts, rec)
	defer k.Release()
	sw := rec.StartTimer("sweep")
	for i, ev := range sub.Events {
		if i%4096 == 4095 {
			if err := core.Canceled(ctx); err != nil {
				sw.Stop()
				return nil, err
			}
		}
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			sw.Stop()
			return nil, err
		}
	}
	sw.Stop()
	return k.Finish(ctx)
}
