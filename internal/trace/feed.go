package trace

// RegionFeed routes a trace event stream into per-region sinks without
// buffering region events: it hands every event to the sink of each open
// target region the moment it arrives — the surface the one-pass analysis
// kernel consumes, and the reason its peak memory is independent of region
// length. Region-boundary semantics (call-stack-aware closing, nesting,
// marker exclusion) are the shared regionTracker's, so the feed yields
// regions in exactly Trace.Regions' order.

import (
	"context"
	"fmt"
	"io"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
)

// A RegionSink receives the events of one dynamic region of the target
// loop, in trace order, as they are scanned. Exactly one terminal call
// follows the events: Close with the region's index in close order (the
// index RegionReport carries — unknowable at open time, since nested
// same-loop regions close before the outer one), or Abort when the stream
// fails or is canceled while the region is open.
type RegionSink interface {
	Event(ev Event)
	Close(index int)
	Abort()
}

// A SinkFactory opens the sink for the next dynamic region. It is called
// once per target-loop entry, at the loop.begin marker.
type SinkFactory func() RegionSink

// openSink is one open target-loop region and its sink. start (the absolute
// index of the region's first event) is unique per open region and ties a
// tracker-closed Region back to its sink.
type openSink struct {
	start int
	sink  RegionSink
}

// A RegionFeed consumes an event stream one Push at a time and dispatches
// events to the sinks of open target-loop regions. Errors latch: after a
// failed Push (or a Fail), open sinks have been aborted and every further
// call returns the same error.
type RegionFeed struct {
	mod    *ir.Module
	ctx    context.Context
	loopID int
	make   SinkFactory
	tk     regionTracker
	open   []openSink
	idx    int // absolute index of the next event
	closed int // regions closed so far
	err    error
	done   bool

	rec     *obs.Recorder
	flushed int
}

// NewRegionFeed returns a feed dispatching the dynamic regions of the given
// source loop to sinks from factory, validating events against mod. The
// context is polled every scanCtxCheckInterval events; on cancellation open
// sinks are aborted.
func NewRegionFeed(ctx context.Context, mod *ir.Module, loopID int, factory SinkFactory) *RegionFeed {
	if ctx == nil {
		ctx = context.Background()
	}
	return &RegionFeed{
		mod: mod, ctx: ctx, loopID: loopID, make: factory,
		tk:  regionTracker{target: loopID},
		rec: obs.FromContext(ctx),
	}
}

// Closed returns the number of target-loop regions closed so far.
func (f *RegionFeed) Closed() int { return f.closed }

// abortOpen aborts every open sink, outermost last, and forgets them.
func (f *RegionFeed) abortOpen() {
	for i := len(f.open) - 1; i >= 0; i-- {
		f.open[i].sink.Abort()
		f.open[i].sink = nil
	}
	f.open = f.open[:0]
}

// failAt latches a scan error, naming the index of the region being formed
// and the event where the stream went bad — so a corrupt-trace report
// localizes the damage in the region sequence as well as in the byte
// stream (the decoder's offset context) — and aborts open sinks.
func (f *RegionFeed) failAt(err error) error {
	f.err = fmt.Errorf("trace: scanning region %d (event %d): %w", f.closed, f.idx, err)
	f.abortOpen()
	return f.err
}

// canceled latches cooperative cancellation, wrapping the context's error.
func (f *RegionFeed) canceled() error {
	if err := f.ctx.Err(); err != nil {
		f.err = fmt.Errorf("trace: scan canceled at event %d: %w", f.idx, err)
		f.abortOpen()
		return f.err
	}
	return nil
}

// flushStats publishes accumulated event counts at poll granularity.
func (f *RegionFeed) flushStats() {
	if f.rec == nil {
		return
	}
	if f.idx > f.flushed {
		f.rec.Add(obs.EventsScanned, int64(f.idx-f.flushed))
		f.flushed = f.idx
	}
}

// closeRegion resolves a tracker-closed region back to its sink (matched by
// unique start index; scanned from the innermost end, where it almost
// always is) and closes it with the next close-order index.
func (f *RegionFeed) closeRegion(r Region) {
	for i := len(f.open) - 1; i >= 0; i-- {
		if f.open[i].start == r.Start {
			f.open[i].sink.Close(f.closed)
			f.open = append(f.open[:i], f.open[i+1:]...)
			break
		}
	}
	f.closed++
	if f.rec != nil {
		f.rec.Add(obs.RegionsScanned, 1)
	}
}

// Push feeds the next trace event. Region closes triggered by this event
// (its loop.end/return, which belongs to no target region) are dispatched
// before the event itself reaches any still-open outer region's sink.
func (f *RegionFeed) Push(ev Event) error {
	if f.err != nil {
		return f.err
	}
	if f.idx%scanCtxCheckInterval == 0 {
		if err := f.canceled(); err != nil {
			return err
		}
		f.flushStats()
	}
	if ev.ID < 0 || int(ev.ID) >= f.mod.NumInstrs {
		return f.failAt(fmt.Errorf("instruction ID %d not in module (%d instructions): %w",
			ev.ID, f.mod.NumInstrs, ErrCorruptTrace))
	}
	for _, r := range f.tk.step(f.idx, f.mod, ev.ID) {
		f.closeRegion(r)
	}
	if f.mod.OpOf(ev.ID) == ir.OpLoopBegin && int(f.mod.LoopOf(ev.ID)) == f.loopID {
		// The region's events start at the next index; the marker itself is
		// excluded (but still feeds any open outer region below).
		f.open = append(f.open, openSink{start: f.idx + 1, sink: f.make()})
	}
	for i := range f.open {
		if f.open[i].start <= f.idx {
			f.open[i].sink.Event(ev)
		}
	}
	f.idx++
	return nil
}

// Finish closes the stream: every still-open region closes at the current
// index (early-return semantics, matching Trace.Regions), in LIFO order.
// It returns the total number of regions dispatched.
func (f *RegionFeed) Finish() (int, error) {
	if f.err != nil {
		return f.closed, f.err
	}
	for _, r := range f.tk.finish(f.idx) {
		f.closeRegion(r)
	}
	f.flushStats()
	f.done = true
	return f.closed, nil
}

// Fail aborts the feed with an upstream source error (decoder corruption,
// I/O failure): open sinks are aborted and the wrapped error latches.
func (f *RegionFeed) Fail(err error) error {
	if f.err != nil {
		return f.err
	}
	return f.failAt(err)
}

// FeedRegions drains src through a RegionFeed: the driver the pipeline uses
// when the events come from a decoder or a slice rather than a live
// interpreter. Returns the number of regions dispatched and the first
// error (source failure, corrupt event, or cancellation).
func FeedRegions(ctx context.Context, mod *ir.Module, loopID int, src EventSource, factory SinkFactory) (int, error) {
	f := NewRegionFeed(ctx, mod, loopID, factory)
	for {
		ev, err := src.Next()
		if err == io.EOF {
			return f.Finish()
		}
		if err != nil {
			return f.closed, f.Fail(err)
		}
		if err := f.Push(ev); err != nil {
			return f.closed, err
		}
	}
}
