package pipeline

// The live selected-regions driver. A live execution can be repeated, so
// instead of buffering every open region until its close index is known
// (analyzeInstances), it guesses where each wanted region opens and feeds
// only those regions' stream kernels, as the interpreter runs. No event is
// retained beyond one chunk per fed region.
//
// The guess is exact whenever target regions do not nest: regions then
// close in the order they open, so the region that closes with index i is
// the i-th one entered. Recursion into the target loop nests regions and
// reorders their closes; a pass records the entry ordinal of every wanted
// close index it saw, and a second pass feeds exactly those entries. The
// execution is deterministic, so the second pass closes them as recorded.

import (
	"context"
	"fmt"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// pickRun is one live pass of analyzePicks.
type pickRun struct {
	ctx  context.Context
	mod  *ir.Module
	spec Spec
	rec  *obs.Recorder

	feed    map[int]bool         // entry ordinals whose region gets a kernel
	want    map[int]bool         // wanted close indices
	got     map[int]RegionReport // close index → report, across passes
	entryOf map[int]int          // wanted close index → its entry ordinal

	entries int   // target regions entered so far
	open    []int // entry ordinals of the open regions, innermost last
	skip    skipSink
}

// newSink is the pass's trace.SinkFactory. Target regions close innermost
// first, so the open stack pairs every close with its entry ordinal.
func (r *pickRun) newSink() trace.RegionSink {
	e := r.entries
	r.entries++
	r.open = append(r.open, e)
	if !r.feed[e] {
		return &r.skip
	}
	rec := r.rec
	s := &pickSink{
		run:   r,
		k:     core.AcquireStreamKernel(r.mod, r.spec.DDG, r.spec.Core, rec),
		chunk: make([]trace.Event, 0, streamChunkEvents),
		rt:    rec.StartTimer("region"),
	}
	if rec != nil {
		s.start = time.Now()
	}
	return s
}

// closed pops the innermost open region, which closed with index, and
// reports whether that index is wanted and still unanalyzed.
func (r *pickRun) closed(index int) bool {
	e := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	if !r.want[index] {
		return false
	}
	r.entryOf[index] = e
	_, done := r.got[index]
	return !done
}

// skipSink is the sink of every region the pass does not analyze.
type skipSink struct{ run *pickRun }

func (s *skipSink) Event(trace.Event) {}
func (s *skipSink) Close(index int)   { s.run.closed(index) }
func (s *skipSink) Abort()            {}

// pickSink feeds one region's events to its kernel in chunks, so the
// panic guard and the sweep timer are paid per chunk rather than per event.
type pickSink struct {
	run     *pickRun
	k       *core.StreamKernel
	chunk   []trace.Event
	events  int
	feedErr error // the region is degraded, not the stream
	start   time.Time
	rt      obs.Timer
}

func (s *pickSink) Event(ev trace.Event) {
	s.chunk = append(s.chunk, ev)
	if len(s.chunk) == cap(s.chunk) {
		s.flush()
	}
}

func (s *pickSink) flush() {
	if s.feedErr == nil && len(s.chunk) > 0 {
		sw := s.run.rec.StartTimer("sweep")
		s.feedErr = core.Guard(0, "region", -1, func() error {
			for _, ev := range s.chunk {
				if err := s.k.Feed(ev.ID, ev.Addr); err != nil {
					return err
				}
			}
			return nil
		})
		sw.Stop()
	}
	s.events += len(s.chunk)
	s.chunk = s.chunk[:0]
}

func (s *pickSink) Close(index int) {
	defer s.k.Release()
	s.flush()
	r := s.run
	if !r.closed(index) {
		return
	}
	rec := r.rec
	if rec != nil {
		rec.Add(obs.RegionsStarted, 1)
	}
	clock := regionClock{rec: rec, start: s.start, rt: s.rt}
	rr := RegionReport{Index: index, Events: s.events}
	err := s.feedErr
	if err != nil {
		// The feed ran before the close index existed; patch the
		// placeholder labels of any recovered panic.
		for _, ue := range core.UnitErrors(err) {
			if ue.Kind == "region" && ue.ID == -1 {
				ue.Unit = index
				ue.ID = int64(index)
			}
		}
	} else {
		err = core.Guard(index, "region", int64(index), func() error {
			rep, ferr := s.k.Finish(r.ctx)
			rr.Report = rep
			return ferr
		})
	}
	clock.finish(&rr, err)
	r.got[index] = rr
}

func (s *pickSink) Abort() { s.k.Release() }

// analyzePicks is Analyze's selected-regions path over a live execution.
// The first pass feeds the regions entered at the wanted indices; only if
// recursion reordered the closes does a second pass feed the entries the
// first one recorded for the wanted regions it missed.
func analyzePicks(ctx context.Context, mod *ir.Module, loopID int, budget core.Budget, spec Spec) ([]RegionReport, error) {
	want := make(map[int]bool, len(spec.Instances))
	for _, idx := range spec.Instances {
		want[idx] = true
	}
	got := make(map[int]RegionReport, len(want))
	feed := want
	for pass := 0; ; pass++ {
		r := &pickRun{
			ctx: ctx, mod: mod, spec: spec, rec: obs.FromContext(ctx),
			feed: feed, want: want, got: got, entryOf: make(map[int]int, len(want)),
		}
		r.skip.run = r
		closed, err := runLive(ctx, mod, loopID, budget, r.newSink)
		if err != nil {
			return nil, err
		}
		feed = make(map[int]bool)
		for _, idx := range spec.Instances {
			if idx >= closed {
				return nil, missingRegion(spec, closed, idx)
			}
			if _, ok := got[idx]; !ok {
				feed[r.entryOf[idx]] = true
			}
		}
		if len(feed) == 0 {
			return inSpecOrder(spec, got)
		}
		if pass > 0 {
			return nil, fmt.Errorf("pipeline: loop on line %d: a repeated execution closed its regions in a different order", spec.Line)
		}
	}
}
