package main

// The traced driver: the only file that imports the product's internal
// packages. For each workload it rebuilds the unit's work from layer
// primitives — front end, interpreter, trace capture and codec, the one-pass
// stream kernel, the DDG and baselines, the static vectorizer and profile,
// report rendering — and times every call from outside, on one thread, so
// the layers' self times add up to the driver's wall time. It calls none of
// the pipeline package's entry points, so consolidating those leaves this
// file alone; its outputs must equal the end-to-end outputs byte for byte.

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/example/vectrace/internal/ast"
	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/lower"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/parser"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/sema"
	"github.com/example/vectrace/internal/simd"
	"github.com/example/vectrace/internal/staticvec"
	"github.com/example/vectrace/internal/trace"
)

// layerClock accumulates one replay's layer self times and counts.
type layerClock struct {
	self  map[string]time.Duration
	count map[string]float64
	peak  map[string]float64
	// The tracing factor compares traced and plain runs of the same
	// programs only (the paper's Table 4 runs are plain alone).
	plainSteps        float64
	tfPlain, tfTraced time.Duration
	// skipped is time the replay spent on the suite's own checks, which is
	// not the product's work and leaves the driver's wall time.
	skipped time.Duration
}

func newLayerClock() *layerClock {
	return &layerClock{self: map[string]time.Duration{}, count: map[string]float64{}, peak: map[string]float64{}}
}

// time runs f and charges its wall time to layer.
func (c *layerClock) time(layer string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	c.self[layer] += d
	return d
}

// skip runs f, a check of the suite's own, outside the driver's wall time.
func (c *layerClock) skip(f func()) {
	start := time.Now()
	f()
	c.skipped += time.Since(start)
}

func (c *layerClock) add(name string, v float64) { c.count[name] += v }

func (c *layerClock) max(name string, v float64) { c.peak[name] = max(c.peak[name], v) }

const (
	mb         = 1 << 20
	eventBytes = 16 // one trace.Event in memory
)

// finish turns one replay into layer samples. wall is the replay's wall
// time; unitCPU the product's CPU seconds for the same unit of work.
func (c *layerClock) finish(st *wstate, wall time.Duration, unitCPU float64) {
	add := func(name string, v float64) { st.layers[name] = append(st.layers[name], v) }
	wall -= c.skipped
	var attributed time.Duration
	for name, d := range c.self {
		attributed += d
		add(name, float64(d)/float64(time.Millisecond))
	}
	for name, v := range c.count {
		if _, ok := findDef(layerDefs, name); ok {
			add(name, v)
		}
	}
	for name, v := range c.peak {
		add(name, v)
	}
	secs := func(layer string) float64 { return c.self[layer].Seconds() }
	if c.tfPlain > 0 {
		add("interp.steps_per_s", c.plainSteps/c.tfPlain.Seconds())
		add("interp.tracing_factor", c.tfTraced.Seconds()/c.tfPlain.Seconds())
	}
	if n := c.count["core.events"]; n > 0 {
		add("core.sweep_ns_per_event", float64(c.self["core.sweep_ms"])/n)
	}
	// Codec throughput counts events at their in-memory size, so a better
	// compression ratio does not read as a slower codec.
	if n := c.count["trace.encoded_events"]; n > 0 {
		add("trace.encode_mb_per_s", n*eventBytes/mb/secs("trace.encode_ms"))
		add("trace.bytes_per_event", c.count["trace.encoded_bytes"]/n)
	}
	if n := c.count["trace.decoded_events"]; n > 0 {
		add("trace.decode_mb_per_s", n*eventBytes/mb/secs("trace.decode_ms"))
	}
	if n := c.count["ddg.nodes"]; n > 0 {
		add("ddg.ns_per_node", float64(c.self["ddg.build_ms"])/n)
	}
	add("traced.wall_ms", float64(wall)/float64(time.Millisecond))
	add("traced.unattributed_pct", 100*float64(wall-attributed)/float64(wall))
	if unitCPU > 0 {
		add("traced.cpu_ratio", wall.Seconds()/unitCPU)
	}
}

// tracedRun is a workload's traced run: it makes sure end-to-end outputs
// exist, then replays the unit's work on one thread — once per repetition
// (at most three) in a suite run; with -seconds, as often as fits in the
// budget that remains, at least once — and fails the run when the replays'
// median unattributed share exceeds the limit.
func tracedRun(e *env, o options, st *wstate) error {
	start := time.Now()
	if err := st.w.tracedPrep(e, st); err != nil {
		return err
	}
	unitCPU := median(st.unitCPU)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	budget := time.Duration(o.seconds * float64(time.Second))
	replays := time.Now()
	for i := 0; ; i++ {
		if o.seconds == 0 && i == min(o.reps, 3) {
			break
		}
		// As in measure: start another replay only if it is expected to end
		// within half a replay of the budget.
		if o.seconds > 0 && i > 0 && time.Since(start)+time.Since(replays)/time.Duration(2*i) > budget {
			break
		}
		runtime.GC() // every replay starts from a collected heap
		lc := newLayerClock()
		t0 := time.Now()
		if err := st.w.replay(e, st, lc); err != nil {
			return err
		}
		lc.finish(st, time.Since(t0), unitCPU)
	}
	if u := median(st.layers["traced.unattributed_pct"]); u > maxUnattributedPct {
		st.invalidate("traced run: %.1f%% of the driver's wall time is unattributed (limit %.0f%%)", u, maxUnattributedPct)
	}
	return nil
}

// compile is the front end: parse, check, lower.
func compile(lc *layerClock, name, src string) (*ir.Module, error) {
	var prog *ast.Program
	var info *sema.Info
	var mod *ir.Module
	var err error
	lc.time("parser.ms", func() { prog, err = parser.Parse(name, src) })
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	lc.time("sema.ms", func() { info, err = sema.Check(prog) })
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	lc.time("lower.ms", func() { mod, err = lower.Lower(prog, info) })
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return mod, nil
}

// execute compiles mod's execution plan, runs main once plain (the tracing
// factor's base) and once traced with loop-cycle attribution, and copies the
// sink's events into a trace — the capture the CLI's live path performs.
func execute(lc *layerClock, mod *ir.Module) (*interp.Result, *trace.Trace, error) {
	ctx := context.Background()
	var plan *interp.Plan
	lc.time("interp.plan_ms", func() { plan = interp.CompilePlan(mod) })
	var plain, res *interp.Result
	var err error
	lc.tfPlain += lc.time("interp.plain_ms", func() {
		plain, err = interp.New(mod, interp.Config{Plan: plan}).RunContext(ctx, "main")
	})
	if err != nil {
		return nil, nil, err
	}
	lc.plainSteps += float64(plain.Steps)
	sink := &interp.TraceSink{}
	lc.tfTraced += lc.time("interp.traced_ms", func() {
		res, err = interp.New(mod, interp.Config{Tracer: sink, CountLoopCycles: true, Plan: plan}).RunContext(ctx, "main")
	})
	if err != nil {
		return nil, nil, err
	}
	lc.add("interp.steps", float64(res.Steps))
	var tr *trace.Trace
	lc.time("trace.capture_ms", func() {
		tr = &trace.Trace{Module: mod, Events: make([]trace.Event, len(sink.Events))}
		for i, ev := range sink.Events {
			tr.Events[i] = trace.Event{ID: ev.ID, Addr: ev.Addr}
		}
	})
	lc.max("trace.capture_mb", float64((cap(sink.Events)+len(tr.Events))*eventBytes)/mb)
	return res, tr, nil
}

// analyzeRegion runs one region's events through a stream kernel, the
// one-pass Algorithm-1 sweep, and finishes its report.
func analyzeRegion(lc *layerClock, mod *ir.Module, events []trace.Event) (*core.Report, error) {
	var k *core.StreamKernel
	var err error
	lc.time("core.sweep_ms", func() {
		k = core.AcquireStreamKernel(mod, ddg.Options{}, core.Options{Workers: 1}, nil)
		for _, ev := range events {
			if err = k.Feed(ev.ID, ev.Addr); err != nil {
				return
			}
		}
	})
	lc.add("core.events", float64(len(events)))
	var rep *core.Report
	lc.time("core.finish_ms", func() {
		if err == nil {
			rep, err = k.Finish(context.Background())
		}
	})
	lc.max("core.kernel_peak_kb", float64(k.PeakLiveBytes())/1024)
	k.Release()
	if err != nil {
		return nil, err
	}
	lc.add("core.candidates", float64(len(rep.PerInstr)))
	for _, in := range rep.PerInstr {
		lc.add("core.partitions", float64(in.Partitions))
	}
	return rep, nil
}

// render encodes the region reports as the canonical analysis JSON.
func render(lc *layerClock, regs []pipeline.RegionReport) ([]byte, error) {
	var js []byte
	var err error
	lc.time("report.render_ms", func() { js, err = report.RegionsJSON(regs) })
	lc.add("report.bytes", float64(len(js)))
	return js, err
}

// targetLoop resolves the loop whose "for" keyword is on line.
func targetLoop(mod *ir.Module, line int) (int, error) {
	lm := mod.LoopByLine(line)
	if lm == nil {
		return 0, fmt.Errorf("no loop on line %d", line)
	}
	return lm.ID, nil
}

// replayLive is `vectrace analyze P.c -line L -instance -1 -json`: trace the
// whole program into memory, split it into the loop's regions, analyze each.
func replayLive(lc *layerClock, name, src string, line int) ([]byte, error) {
	mod, err := compile(lc, name, src)
	if err != nil {
		return nil, err
	}
	_, tr, err := execute(lc, mod)
	if err != nil {
		return nil, err
	}
	loop, err := targetLoop(mod, line)
	if err != nil {
		return nil, err
	}
	var regions []trace.Region
	lc.time("trace.split_ms", func() { regions = tr.Regions(loop) })
	regs := make([]pipeline.RegionReport, len(regions))
	for i, r := range regions {
		events := tr.RegionEvents(r)
		rep, err := analyzeRegion(lc, mod, events)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", i, err)
		}
		regs[i] = pipeline.RegionReport{Index: i, Events: len(events), Report: rep}
		lc.add("trace.region_events", float64(len(events)))
	}
	lc.add("trace.regions", float64(len(regions)))
	return render(lc, regs)
}

// replayOffline is `vectrace record P.c -format vtr2` followed by `vectrace
// analyze P.c -trace P.vtr -line L -instance -1 -json`. Recording is split
// into the traced run, the capture and the VTR2 encoding so each is timed
// apart; the analysis decodes each region from the container's index. It
// returns the container bytes and the analysis JSON.
func replayOffline(lc *layerClock, name, src string, line int) (vtr, out []byte, err error) {
	mod, err := compile(lc, name, src)
	if err != nil {
		return nil, nil, err
	}
	_, tr, err := execute(lc, mod)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	lc.time("trace.encode_ms", func() {
		var cw *trace.ContainerWriter
		if cw, err = trace.NewContainerWriter(&buf, mod, trace.ContainerOptions{}); err != nil {
			return
		}
		for _, ev := range tr.Events {
			if err = cw.Write(ev); err != nil {
				return
			}
		}
		err = cw.Close()
	})
	if err != nil {
		return nil, nil, err
	}
	vtr = buf.Bytes()
	lc.add("trace.encoded_bytes", float64(len(vtr)))
	lc.add("trace.encoded_events", float64(len(tr.Events)))
	regs, err := analyzeContainer(lc, mod, vtr, line)
	if err != nil {
		return nil, nil, err
	}
	out, err = render(lc, regs)
	return vtr, out, err
}

// analyzeContainer opens a VTR2 container and analyzes every region of the
// loop on line, decoding each from its covering blocks.
func analyzeContainer(lc *layerClock, mod *ir.Module, vtr []byte, line int) ([]pipeline.RegionReport, error) {
	loop, err := targetLoop(mod, line)
	if err != nil {
		return nil, err
	}
	rec := obs.New()
	var c *trace.Container
	lc.time("trace.decode_ms", func() { c, err = trace.OpenContainer(bytes.NewReader(vtr), int64(len(vtr)), rec) })
	if err != nil {
		return nil, err
	}
	var regions []trace.IndexRegion
	lc.time("trace.split_ms", func() { regions = c.RegionsOf(loop) })
	cu := c.Cursor()
	regs := make([]pipeline.RegionReport, len(regions))
	for k, r := range regions {
		var sub *trace.Trace
		lc.time("trace.decode_ms", func() { sub, err = cu.RegionTrace(mod, r) })
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", k, err)
		}
		rep, err := analyzeRegion(lc, mod, sub.Events)
		if err != nil {
			return nil, fmt.Errorf("region %d: %w", k, err)
		}
		regs[k] = pipeline.RegionReport{Index: k, Events: r.Events(), Report: rep}
		lc.add("trace.region_events", float64(r.Events()))
	}
	lc.add("trace.regions", float64(len(regions)))
	lc.add("trace.decoded_events", float64(c.NumEvents()))
	lc.add("trace.blocks_read", float64(rec.Get(obs.TraceBlocksRead)))
	return regs, nil
}

// ---------------------------------------------------------------- paper

// replayPaper regenerates the paper pass — vecbench -csv for Tables 1–4 and
// Figures 1–2 — from layer primitives and returns each artifact's CSV.
func replayPaper(lc *layerClock) (map[string][]byte, error) {
	out := map[string][]byte{}
	var err error
	if out["table1"], err = paperTable1(lc); err != nil {
		return nil, fmt.Errorf("table 1: %w", err)
	}
	if out["table2"], err = paperTable2(lc); err != nil {
		return nil, fmt.Errorf("table 2: %w", err)
	}
	if out["table3"], err = paperTable3(lc); err != nil {
		return nil, fmt.Errorf("table 3: %w", err)
	}
	if out["table4"], err = paperTable4(lc); err != nil {
		return nil, fmt.Errorf("table 4: %w", err)
	}
	for i, k := range []kernels.Kernel{kernels.Listing1(16), kernels.Listing2(16)} {
		larus := ""
		if i == 1 {
			larus = "@main-loop"
		}
		if out[fmt.Sprintf("figure%d", i+1)], err = paperFigure(lc, k, larus); err != nil {
			return nil, fmt.Errorf("figure %d: %w", i+1, err)
		}
	}
	return out, nil
}

// csvRows renders rows the way vecbench -csv does.
func csvRows(lc *layerClock, rows [][]string) []byte {
	var buf bytes.Buffer
	lc.time("report.render_ms", func() {
		w := csv.NewWriter(&buf)
		w.WriteAll(rows) //nolint:errcheck // a bytes.Buffer does not fail
	})
	lc.add("report.bytes", float64(buf.Len()))
	return buf.Bytes()
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// loopColumns are one analyzed hot loop's table columns.
type loopColumns struct {
	cycles, packed float64
	rep            *core.Report
}

func (l loopColumns) cols() []string {
	r := l.rep
	return []string{f3(l.packed), f3(r.AvgConcurrency), f3(r.UnitVecOpsPct), f3(r.UnitAvgVecSize),
		f3(r.NonUnitVecOpsPct), f3(r.NonUnitAvgVecSize)}
}

// paperLoop is one table row's work: trace the kernel, profile it, and
// analyze up to three regions of the marked loop — the first, middle and
// last — keeping the median by candidate-operation count.
func paperLoop(lc *layerClock, k kernels.Kernel, marker string) (loopColumns, error) {
	mod, err := compile(lc, k.Name+".c", k.Source)
	if err != nil {
		return loopColumns{}, err
	}
	res, tr, err := execute(lc, mod)
	if err != nil {
		return loopColumns{}, err
	}
	var verdicts map[int]staticvec.Verdict
	lc.time("staticvec.ms", func() { verdicts = staticvec.AnalyzeModule(mod) })
	var prof *profile.Profile
	lc.time("profile.ms", func() { prof = profile.Build(mod, res, verdicts) })
	line, err := k.FindLine(marker)
	if err != nil {
		return loopColumns{}, err
	}
	loop, err := targetLoop(mod, line)
	if err != nil {
		return loopColumns{}, err
	}
	var regions []trace.Region
	lc.time("trace.split_ms", func() { regions = tr.Regions(loop) })
	if len(regions) == 0 {
		return loopColumns{}, fmt.Errorf("%s: loop never executed", k.Name)
	}
	lc.add("trace.regions", float64(len(regions)))
	picks := []int{0}
	if len(regions) > 2 {
		picks = append(picks, len(regions)/2)
	}
	if len(regions) > 1 {
		picks = append(picks, len(regions)-1)
	}
	reps := make([]*core.Report, len(picks))
	for i, pick := range picks {
		events := tr.RegionEvents(regions[pick])
		lc.add("trace.region_events", float64(len(events)))
		if reps[i], err = analyzeRegion(lc, mod, events); err != nil {
			return loopColumns{}, err
		}
	}
	sort.SliceStable(reps, func(i, j int) bool { return reps[i].TotalCandidateOps < reps[j].TotalCandidateOps })
	l := loopColumns{rep: reps[len(reps)/2]}
	if st := prof.Loop(loop); st != nil {
		l.cycles, l.packed = st.PercentCycles, st.PercentPacked()
	}
	return l, nil
}

func paperTable1(lc *layerClock) ([]byte, error) {
	rows := [][]string{{"benchmark", "loop", "cycles_pct", "packed_pct", "avg_concurrency", "unit_pct", "unit_size", "nonunit_pct", "nonunit_size"}}
	for _, b := range kernels.SPEC() {
		for _, t := range b.Targets {
			l, err := paperLoop(lc, b.Kernel, t.Marker)
			if err != nil {
				return nil, err
			}
			rows = append(rows, append([]string{b.Name, t.Label, f3(l.cycles)}, l.cols()...))
		}
	}
	return csvRows(lc, rows), nil
}

func paperTable2(lc *layerClock) ([]byte, error) {
	rows := [][]string{{"benchmark", "packed_pct", "avg_concurrency", "unit_pct", "unit_size", "nonunit_pct", "nonunit_size"}}
	for _, s := range []struct {
		name   string
		kernel kernels.Kernel
		marker string
	}{
		{"2-D Gauss-Seidel Stencil", kernels.GaussSeidel(32, 2), "@time-loop"},
		{"2-D PDE Grid Solver", kernels.PDESolver(16, 4), "@grid-j"},
	} {
		l, err := paperLoop(lc, s.kernel, s.marker)
		if err != nil {
			return nil, err
		}
		rows = append(rows, append([]string{s.name}, l.cols()...))
	}
	return csvRows(lc, rows), nil
}

func paperTable3(lc *layerClock) ([]byte, error) {
	rows := [][]string{{"benchmark", "style", "packed_pct", "avg_concurrency", "unit_pct", "unit_size", "nonunit_pct", "nonunit_size"}}
	for _, p := range kernels.UTDSP() {
		for _, v := range []struct {
			style  string
			kernel kernels.Kernel
		}{{"Array", p.Array}, {"Pointer", p.Pointer}} {
			l, err := paperLoop(lc, v.kernel, "@hot")
			if err != nil {
				return nil, err
			}
			rows = append(rows, append([]string{p.Name, v.style}, l.cols()...))
		}
	}
	return csvRows(lc, rows), nil
}

// paperTable4 models each case study's original and transformed hot loop on
// the three machines: a plain run with loop-cycle attribution, the static
// vectorizer's verdicts, and the SIMD time model.
func paperTable4(lc *layerClock) ([]byte, error) {
	type side struct {
		mod      *ir.Module
		res      *interp.Result
		verdicts map[int]staticvec.Verdict
		loop     int
	}
	run := func(k kernels.Kernel, marker string) (side, error) {
		mod, err := compile(lc, k.Name+".c", k.Source)
		if err != nil {
			return side{}, err
		}
		var plan *interp.Plan
		lc.time("interp.plan_ms", func() { plan = interp.CompilePlan(mod) })
		var res *interp.Result
		lc.time("interp.plain_ms", func() {
			res, err = interp.New(mod, interp.Config{CountLoopCycles: true, Plan: plan}).RunContext(context.Background(), "main")
		})
		if err != nil {
			return side{}, err
		}
		var verdicts map[int]staticvec.Verdict
		lc.time("staticvec.ms", func() { verdicts = staticvec.AnalyzeModule(mod) })
		line, err := k.FindLine(marker)
		if err != nil {
			return side{}, err
		}
		loop, err := targetLoop(mod, line)
		return side{mod, res, verdicts, loop}, err
	}
	rows := [][]string{{"benchmark", "machine", "original_cycles", "transformed_cycles", "speedup"}}
	for _, cs := range kernels.CaseStudies() {
		orig, err := run(cs.Original, cs.HotMarker)
		if err != nil {
			return nil, fmt.Errorf("%s original: %w", cs.Name, err)
		}
		tran, err := run(cs.Transformed, cs.HotMarker)
		if err != nil {
			return nil, fmt.Errorf("%s transformed: %w", cs.Name, err)
		}
		for _, m := range simd.Machines() {
			var ot, tt float64
			lc.time("simd.ms", func() {
				ot = simd.LoopTime(orig.mod, orig.res, orig.verdicts, m, orig.loop)
				tt = simd.LoopTime(tran.mod, tran.res, tran.verdicts, m, tran.loop)
			})
			rows = append(rows, []string{cs.Name, m.Name, f3(ot), f3(tt), f3(ot / tt)})
		}
	}
	return csvRows(lc, rows), nil
}

// paperFigure partitions the statements S1 and S2 of a listing by Algorithm
// 1 over the materialized DDG and by the Kumar critical-path baseline, and
// with a Larus marker also by the loop-level Larus model.
func paperFigure(lc *layerClock, k kernels.Kernel, larusMarker string) ([]byte, error) {
	mod, err := compile(lc, k.Name+".c", k.Source)
	if err != nil {
		return nil, err
	}
	_, tr, err := execute(lc, mod)
	if err != nil {
		return nil, err
	}
	build := func(t *trace.Trace) (*ddg.Graph, error) {
		var g *ddg.Graph
		var err error
		lc.time("ddg.build_ms", func() { g, err = ddg.BuildOpts(t, ddg.Options{}) })
		if err == nil {
			lc.add("ddg.nodes", float64(len(g.Nodes)))
		}
		return g, err
	}
	g, err := build(tr)
	if err != nil {
		return nil, err
	}
	labels := []string{"S1", "S2"}
	instrOf := map[string]int32{}
	for _, label := range labels {
		line, err := k.FindLine("@" + label)
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
	rows := [][]string{{"analysis", "statement", "partitions", "avg_size", "max_size"}}
	row := func(analysis, label string, groups [][]int32) {
		total, maxSize := 0, 0
		for _, grp := range groups {
			total += len(grp)
			maxSize = max(maxSize, len(grp))
		}
		avg := 0.0
		if len(groups) > 0 {
			avg = float64(total) / float64(len(groups))
		}
		rows = append(rows, []string{analysis, label, strconv.Itoa(len(groups)), f3(avg), strconv.Itoa(maxSize)})
	}
	var kumarTS []int32
	lc.time("baseline.ms", func() { kumarTS = baseline.KumarTimestamps(g) })
	for _, label := range labels {
		id := instrOf[label]
		var groups [][]int32
		lc.time("core.graph_ms", func() {
			parts := core.Partitions(g, id, core.Options{})
			groups = make([][]int32, len(parts))
			for i := range parts {
				groups[i] = parts[i].Nodes
			}
		})
		row("Algorithm 1", label, groups)
		lc.time("baseline.ms", func() { groups = baseline.PartitionsByTimestamp(g, id, kumarTS) })
		row("Kumar", label, groups)
	}
	if larusMarker != "" {
		line, err := k.FindLine(larusMarker)
		if err != nil {
			return nil, err
		}
		loop, err := targetLoop(mod, line)
		if err != nil {
			return nil, err
		}
		var regions []trace.Region
		lc.time("trace.split_ms", func() { regions = tr.Regions(loop) })
		if len(regions) == 0 {
			return nil, fmt.Errorf("%s: loop %s never ran", k.Name, larusMarker)
		}
		rg, err := build(tr.Slice(regions[0]))
		if err != nil {
			return nil, err
		}
		var lr *baseline.LarusResult
		lc.time("baseline.ms", func() { lr = baseline.Larus(rg, loop) })
		for _, label := range labels {
			var groups [][]int32
			lc.time("baseline.ms", func() { groups = baseline.PartitionsByTimestamp(rg, instrOf[label], lr.Finish) })
			row("Larus", label, groups)
		}
	}
	return csvRows(lc, rows), nil
}
