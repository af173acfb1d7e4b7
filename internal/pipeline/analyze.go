package pipeline

// Analyze is the one region-analysis entry point. Whatever the source —
// the live interpreter, a VTR1 stream, a VTR2 container, an in-memory
// event slice — the loop's dynamic regions are found by one push-side
// trace.RegionFeed and analyzed by the dispatcher below, with a single
// exception chosen by the input itself: a VTR2 file with a verified footer
// index seeks its regions directly and fans decode out (container.go).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// A Source is where Analyze gets the program's dynamic instances from.
// With Trace and Events both nil, Module is executed live under Budget and
// its events feed the analysis as they are produced; otherwise the events
// come from Trace, else from Events, and Budget is unused.
type Source struct {
	// Module is the analyzed program; required. Recorded events must come
	// from an execution of this module.
	Module *ir.Module
	// Budget bounds the live execution (steps, call depth, stack).
	Budget core.Budget
	// Trace is an opened trace file: a VTR1 stream, an indexed VTR2
	// container, or a VTR2 file whose index was unusable (salvage walk).
	Trace *trace.Opened
	// Events is any other event stream, e.g. a trace.SliceSource over an
	// in-memory trace. It is read once.
	Events trace.EventSource
}

// A Spec says which regions Analyze analyzes and how.
type Spec struct {
	// Line is the source line of the loop's "for"/"while" keyword.
	Line int
	// Instances selects dynamic regions by their index in close order,
	// and their reports come back in this order. An empty list, or any
	// negative entry, analyzes every region.
	Instances []int
	// DDG configures graph construction (e.g. integer characterization).
	DDG ddg.Options
	// Core configures the §3 analysis; Core.Workers sizes the region pool.
	Core core.Options
	// ScanWorkers is the decode fan-out of an indexed VTR2 trace: 0 means
	// Core.WorkerCount(), and -1 forces the sequential scan even when the
	// index is available (the differential-testing oracle).
	ScanWorkers int
}

// Analyze analyzes the dynamic regions (loop entry to loop exit) of the
// loop on spec.Line, reading a recorded src once. A live src executes
// once, or twice when listed instances sit in regions that recursion
// nests (see analyzePicks).
//
// When spec selects every region, each one is analyzed, fanned out across
// spec.Core.WorkerCount() workers, and the reports come back in region
// index order, identical for any worker count and source. Each region's
// analysis runs with Workers=1 but otherwise inherits spec.Core. Region
// events flow from the feed into pooled stream kernels in bounded chunks,
// so no region is ever materialized (under RelaxReductions the kernel
// itself buffers its region for the replay pass).
//
// Failures degrade gracefully: a region whose analysis fails (an error,
// an exhausted budget, even a panic) records its error in its own
// RegionReport.Err while every other region is still analyzed. The
// returned error joins the per-region errors in index order, then the
// source error (a corrupt or failing trace, an interpreter failure), then
// the cancellation error. Regions that closed before the source failed are
// still returned.
//
// Otherwise only the listed regions are analyzed, each with spec.Core as
// given, and a per-region failure fails the request as well as filling
// that region's Err. A live execution feeds the selected regions' kernels
// as it runs and retains no events (see analyzePicks); a recorded trace
// buffers one open region at a time and is read no further than the last
// selected region's end. Any source failure fails the request.
func Analyze(ctx context.Context, src Source, spec Spec) ([]RegionReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mod := src.Module
	lm := mod.LoopByLine(spec.Line)
	if lm == nil {
		return nil, fmt.Errorf("pipeline: no loop on line %d", spec.Line)
	}
	ctx, span := obs.StartSpan(ctx, "region-analyze")
	defer span.End()
	if src.Trace != nil && src.Trace.Container != nil && spec.ScanWorkers >= 0 {
		return analyzeIndexed(ctx, src.Trace.Container, mod, lm.ID, spec)
	}
	events := src.Events
	if src.Trace != nil {
		events = src.Trace.Source()
	}
	switch {
	case spec.everyRegion() && events != nil:
		return analyzeRegions(ctx, mod, spec, func(factory trace.SinkFactory) (int, error) {
			return trace.FeedRegions(ctx, mod, lm.ID, events, factory)
		})
	case spec.everyRegion():
		return analyzeRegions(ctx, mod, spec, func(factory trace.SinkFactory) (int, error) {
			return runLive(ctx, mod, lm.ID, src.Budget, factory)
		})
	case events != nil:
		return analyzeInstances(ctx, mod, lm.ID, events, spec)
	default:
		return analyzePicks(ctx, mod, lm.ID, src.Budget, spec)
	}
}

// everyRegion reports whether the spec selects every region.
func (s Spec) everyRegion() bool {
	if len(s.Instances) == 0 {
		return true
	}
	for _, i := range s.Instances {
		if i < 0 {
			return true
		}
	}
	return false
}

// missingRegion is the error of a selected-regions request naming a region
// the loop never reached.
func missingRegion(spec Spec, regions, index int) error {
	return fmt.Errorf("pipeline: loop on line %d has %d dynamic regions, want index %d", spec.Line, regions, index)
}

// inSpecOrder lays the analyzed regions out in spec.Instances order and
// returns them with their errors: the single error itself for one region,
// else the errors joined in that order.
func inSpecOrder(spec Spec, byIndex map[int]RegionReport) ([]RegionReport, error) {
	out := make([]RegionReport, len(spec.Instances))
	var errs []error
	for i, idx := range spec.Instances {
		out[i] = byIndex[idx]
		if out[i].Err != nil {
			errs = append(errs, out[i].Err)
		}
	}
	if len(errs) == 1 {
		return out, errs[0]
	}
	return out, errors.Join(errs...)
}

// feedTracer adapts a RegionFeed to the interpreter's Tracer interface, so
// a live execution feeds the analysis directly — trace events flow
// interpreter → region feed → kernel without ever being buffered, encoded,
// or written anywhere.
type feedTracer struct {
	feed *trace.RegionFeed
	err  error
}

// Exec implements interp.Tracer. The first feed error latches; subsequent
// events are dropped (the interpreter finishes or is canceled on its own).
func (s *feedTracer) Exec(id int32, addr int64) {
	if s.err == nil {
		s.err = s.feed.Push(trace.Event{ID: id, Addr: addr})
	}
}

// ExecBatch implements interp.BatchTracer: one fan-out call per chunk.
func (s *feedTracer) ExecBatch(events []interp.Event) {
	for _, ev := range events {
		if s.err != nil {
			return
		}
		s.err = s.feed.Push(trace.Event{ID: ev.ID, Addr: ev.Addr})
	}
}

// runLive executes the module's main function with a RegionFeed as its
// tracer, returning the number of regions closed and the first failure.
// An interpreter failure (budget, cancellation, runtime error) comes back
// as the interpreter reported it; the feed only aborts the open regions.
// The execution summary is discarded, so the run skips per-loop cycle
// attribution.
func runLive(ctx context.Context, mod *ir.Module, loopID int, budget core.Budget, factory trace.SinkFactory) (int, error) {
	feed := trace.NewRegionFeed(ctx, mod, loopID, factory)
	sink := &feedTracer{feed: feed}
	ictx, sp := obs.StartSpan(ctx, "interp")
	_, err := interp.New(mod, interpConfig(budget, sink, false)).RunContext(ictx, "main")
	sp.End()
	if sink.err != nil {
		return feed.Closed(), sink.err
	}
	if err != nil {
		feed.Fail(err)
		return feed.Closed(), err
	}
	return feed.Finish()
}

// regionClock is the bookkeeping every driver wraps around one region's
// analysis: the lifecycle counters (started == completed + failed), the
// "region" timer, and RegionReport.Elapsed.
type regionClock struct {
	rec   *obs.Recorder
	start time.Time
	rt    obs.Timer
}

func startRegion(rec *obs.Recorder) regionClock {
	c := regionClock{rec: rec}
	if rec != nil {
		c.start = time.Now()
		rec.Add(obs.RegionsStarted, 1)
	}
	c.rt = rec.StartTimer("region")
	return c
}

// finish records the region's outcome in rr: a failure is wrapped with the
// region index into rr.Err and counted failed, success counted completed.
func (c regionClock) finish(rr *RegionReport, err error) {
	if err != nil {
		rr.Err = fmt.Errorf("pipeline: region %d: %w", rr.Index, err)
		if c.rec != nil {
			c.rec.Add(obs.RegionsFailed, 1)
			c.rec.RecordRegionFailure(rr.Err.Error())
		}
	} else if c.rec != nil {
		c.rec.Add(obs.RegionsCompleted, 1)
	}
	c.rt.Stop()
	if c.rec != nil {
		rr.Elapsed = time.Since(c.start)
	}
}

// abort closes the books on a region the source failed under: it has no
// close index and no report slot, so it only counts as failed.
func (c regionClock) abort() {
	c.rt.Stop()
	if c.rec != nil {
		c.rec.Add(obs.RegionsFailed, 1)
	}
}

// joinRegionErrors is the summary error of a multi-region analysis: the
// per-region errors in index order, then the source error, then the
// cancellation error.
func joinRegionErrors(ctx context.Context, out []RegionReport, srcErr error) error {
	errs := make([]error, 0, 3)
	for i := range out {
		if out[i].Err != nil {
			errs = append(errs, out[i].Err)
		}
	}
	if srcErr != nil {
		errs = append(errs, srcErr)
	}
	if err := core.Canceled(ctx); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// denseOnCancel truncates out at its first unfilled slot once ctx is done:
// cancellation can leave regions unanalyzed, and the returned prefix must
// be dense.
func denseOnCancel(ctx context.Context, out []RegionReport) []RegionReport {
	if ctx.Err() == nil {
		return out
	}
	for i := range out {
		if out[i].Report == nil && out[i].Err == nil {
			return out[:i]
		}
	}
	return out
}

// instanceWant is a selected-regions request over a recorded stream: the
// wanted close indices and, once each has closed, its events.
type instanceWant struct {
	wanted map[int]bool
	found  map[int][]trace.Event
	done   bool // every wanted region has closed
}

// instanceSink buffers one open region's events; a region that closes with
// a wanted index hands its buffer over, every other one drops it.
type instanceSink struct {
	want   *instanceWant
	events []trace.Event
}

func (s *instanceSink) Event(ev trace.Event) { s.events = append(s.events, ev) }

func (s *instanceSink) Close(index int) {
	if w := s.want; w.wanted[index] {
		w.found[index] = s.events
		w.done = len(w.found) == len(w.wanted)
	}
	s.events = nil
}

func (s *instanceSink) Abort() { s.events = nil }

// untilSource ends its stream (io.EOF) once *done is set, so a recorded
// trace is not read past the last wanted region.
type untilSource struct {
	src  trace.EventSource
	done *bool
}

func (s untilSource) Next() (trace.Event, error) {
	if *s.done {
		return trace.Event{}, io.EOF
	}
	return s.src.Next()
}

// analyzeInstances is Analyze's selected-regions path over a recorded
// event stream, which can be read only once: every open region is buffered
// until its close index says whether it was wanted.
func analyzeInstances(ctx context.Context, mod *ir.Module, loopID int, events trace.EventSource, spec Spec) ([]RegionReport, error) {
	want := &instanceWant{wanted: make(map[int]bool), found: make(map[int][]trace.Event)}
	for _, idx := range spec.Instances {
		want.wanted[idx] = true
	}
	closed, err := trace.FeedRegions(ctx, mod, loopID, untilSource{src: events, done: &want.done},
		func() trace.RegionSink { return &instanceSink{want: want} })
	if err != nil {
		return nil, err
	}
	for _, idx := range spec.Instances {
		if _, ok := want.found[idx]; !ok {
			return nil, missingRegion(spec, closed, idx)
		}
	}
	byIndex := make(map[int]RegionReport, len(want.found))
	for _, idx := range spec.Instances {
		if _, done := byIndex[idx]; !done {
			byIndex[idx] = analyzeOne(ctx, &trace.Trace{Module: mod, Events: want.found[idx]}, idx, spec)
			delete(want.found, idx)
		}
	}
	return inSpecOrder(spec, byIndex)
}

// analyzeOne analyzes one materialized region with spec.Core as given —
// the single-instance request of both the fed and the indexed drivers,
// which return its Err as their error.
func analyzeOne(ctx context.Context, sub *trace.Trace, idx int, spec Spec) RegionReport {
	clock := startRegion(obs.FromContext(ctx))
	rr := RegionReport{Index: idx, Events: sub.Len()}
	err := core.Guard(idx, "region", int64(idx), func() error {
		rep, err := AnalyzeRegion(ctx, sub, spec.DDG, spec.Core)
		rr.Report = rep
		return err
	})
	clock.finish(&rr, err)
	return rr
}

// streamChunkEvents is the event granularity at which the feed goroutine
// hands region events to a region worker; streamChunkQueue bounds the
// chunks buffered per in-flight region. Together they are the one-pass
// path's only event retention — a few thousand events per resident region,
// independent of region length — and the backpressure that stops the feed
// from outrunning the kernels.
const (
	streamChunkEvents = 1024
	streamChunkQueue  = 4
)

// chunkPool is the shared state of one multi-region run: the chunk
// freelist and the retained-event accounting behind the
// ScanPeakRetainedEvents gauge.
type chunkPool struct {
	rec         *obs.Recorder
	outstanding atomic.Int64
	mu          sync.Mutex
	free        [][]trace.Event
	open        int // open sinks; touched only by the feed goroutine
}

func (d *chunkPool) get() []trace.Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.free); n > 0 {
		c := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return c[:0]
	}
	return make([]trace.Event, 0, streamChunkEvents)
}

func (d *chunkPool) put(c []trace.Event) {
	d.mu.Lock()
	d.free = append(d.free, c)
	d.mu.Unlock()
}

// chunkSink routes one region's events from the feed goroutine to its
// region worker in chunks. Event/Close/Abort run on the feed goroutine; the
// worker reads idx/aborted only after the channel closes, so the close is
// the synchronization point. An inert sink (cancellation hit while waiting
// for a worker slot) discards everything.
type chunkSink struct {
	d       *chunkPool
	ch      chan []trace.Event
	cur     []trace.Event
	idx     int
	aborted bool
	inert   bool
	hasSem  bool
}

func (s *chunkSink) Event(ev trace.Event) {
	if s.inert {
		return
	}
	if s.cur == nil {
		s.cur = s.d.get()
	}
	s.cur = append(s.cur, ev)
	if len(s.cur) == cap(s.cur) {
		s.flush()
	}
}

func (s *chunkSink) flush() {
	if len(s.cur) == 0 {
		return
	}
	// Counted before the send, so a chunk blocked on a full queue counts:
	// per region worker, one chunk waiting, streamChunkQueue queued, and
	// one being fed.
	n := s.d.outstanding.Add(int64(len(s.cur)))
	s.d.rec.Max(obs.ScanPeakRetainedEvents, n)
	s.ch <- s.cur
	s.cur = nil
}

func (s *chunkSink) Close(index int) {
	if s.inert {
		return
	}
	s.idx = index
	s.flush()
	close(s.ch)
	s.d.open--
}

func (s *chunkSink) Abort() {
	if s.inert {
		return
	}
	s.aborted = true
	if s.cur != nil {
		s.d.put(s.cur)
		s.cur = nil
	}
	close(s.ch)
	s.d.open--
}

// analyzeRegions is Analyze's every-region path: drive pushes the events
// through a RegionFeed whose sinks hand each open region's events to a
// dedicated region worker — a stream kernel fed chunk by chunk. Workers
// are bounded by spec.Core.WorkerCount(); nested target regions (recursion
// into the analyzed loop) oversubscribe the pool rather than block the
// feed, since an open outer region can only drain while the feed advances.
func analyzeRegions(ctx context.Context, mod *ir.Module, spec Spec, drive func(trace.SinkFactory) (int, error)) ([]RegionReport, error) {
	rec := obs.FromContext(ctx)
	workers := spec.Core.WorkerCount()
	inner := spec.Core
	inner.Workers = 1

	var (
		mu  sync.Mutex
		out []RegionReport
	)
	place := func(rr RegionReport) {
		mu.Lock()
		defer mu.Unlock()
		for len(out) <= rr.Index {
			out = append(out, RegionReport{})
		}
		out[rr.Index] = rr
	}

	d := &chunkPool{rec: rec}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup

	run := func(s *chunkSink) {
		defer wg.Done()
		defer func() {
			if rec != nil {
				rec.GaugeDec(obs.ResidentRegions)
			}
			if s.hasSem {
				<-sem
			}
		}()
		clock := startRegion(rec)
		k := core.AcquireStreamKernel(mod, spec.DDG, inner, rec)
		defer k.Release()
		var feedErr error
		events := 0
		for chunk := range s.ch {
			if feedErr == nil {
				// Chunks keep draining after a feed error (the region is
				// degraded, not the stream): stopping would deadlock the feed.
				sw := rec.StartTimer("sweep")
				feedErr = core.Guard(0, "region", -1, func() error {
					for _, ev := range chunk {
						if err := k.Feed(ev.ID, ev.Addr); err != nil {
							return err
						}
					}
					return nil
				})
				sw.Stop()
			}
			events += len(chunk)
			if !inner.RelaxReductions {
				d.outstanding.Add(-int64(len(chunk)))
			}
			d.put(chunk)
		}
		if inner.RelaxReductions {
			// The kernel keeps the region's events for its replay pass:
			// they stay retained until the analysis ends.
			defer d.outstanding.Add(-int64(events))
		}
		if s.aborted {
			clock.abort()
			return
		}
		idx := s.idx
		rr := RegionReport{Index: idx, Events: events}
		var err error
		switch {
		case feedErr != nil:
			// The feed ran before the close index existed; patch the
			// placeholder labels of any recovered panic.
			for _, ue := range core.UnitErrors(feedErr) {
				if ue.Kind == "region" && ue.ID == -1 {
					ue.Unit = idx
					ue.ID = int64(idx)
				}
			}
			err = feedErr
		default:
			err = core.Guard(idx, "region", int64(idx), func() error {
				rep, ferr := k.Finish(ctx)
				rr.Report = rep
				return ferr
			})
		}
		clock.finish(&rr, err)
		place(rr)
	}

	factory := func() trace.RegionSink {
		s := &chunkSink{d: d, idx: -1}
		select {
		case sem <- struct{}{}:
			s.hasSem = true
		default:
			if d.open == 0 {
				select {
				case sem <- struct{}{}:
					s.hasSem = true
				case <-ctx.Done():
					s.inert = true
					return s
				}
			}
			// d.open > 0 means the new region nests inside an open one
			// (recursion into the target loop). Blocking for a slot here
			// would deadlock: the outer region's worker can only finish
			// once the feed advances. Oversubscribe by the nesting depth.
		}
		s.ch = make(chan []trace.Event, streamChunkQueue)
		d.open++
		rec.GaugeInc(obs.ResidentRegions, obs.PeakResidentRegions)
		wg.Add(1)
		go run(s)
		return s
	}

	closed, srcErr := drive(factory)
	wg.Wait()
	if off, ok := trace.CorruptOffset(srcErr); ok {
		rec.SetCorruptByte(off)
	}
	if closed == 0 && srcErr == nil && ctx.Err() == nil {
		return nil, fmt.Errorf("pipeline: loop on line %d never executed", spec.Line)
	}
	// Inert sinks (cancellation during the worker-slot wait) consume a
	// close index without placing a report.
	out = denseOnCancel(ctx, out)
	return out, joinRegionErrors(ctx, out, srcErr)
}
