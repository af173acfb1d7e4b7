package obs

import (
	"context"
	rtrace "runtime/trace"
	"time"
)

// Stage spans. The pipeline's logical stages — parse → check → lower →
// interp/record → scan → region-analyze → sweep → stride → report — are
// recorded two ways at once:
//
//   - into the Recorder, as a named span with wall-clock duration, a
//     recorder-unique span id, and its parent stage (the innermost span
//     open on the context when it started); the parent links make the
//     spans a tree (see trace.go), and every span's duration feeds the
//     "stage:<name>" latency histogram, whose exact count, sum and max are
//     the stage's span_totals entry;
//   - into the Go execution tracer, as a runtime/trace Task plus Region,
//     so `vectrace analyze -exectrace` output groups goroutine activity
//     under the logical stage names in `go tool trace`.
//
// Context-free inner stages (per-region sweeps and analyses inside worker
// goroutines) use the allocation-free Timer variant, which feeds the same
// stage histogram without materializing a span per unit.

// stagePrefix keys the per-stage latency histograms.
const stagePrefix = "stage:"

// spanRef is the context-carried identity of an open span.
type spanRef struct {
	name string
	id   uint64
}

// A Span is one open stage. The zero/nil Span is inert: End is a no-op,
// so callers can thread the StartSpan result unconditionally.
type Span struct {
	rec      *Recorder
	name     string
	id       uint64
	parent   string
	parentID uint64
	start    time.Time
	task     *rtrace.Task
	region   *rtrace.Region
	ended    bool
}

// ID returns the span's recorder-allocated id (0 on nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// StartSpan opens a named stage span as a child of the innermost span on
// ctx, returning a derived context carrying the new span (and the
// recorder's runtime/trace task). With no recorder on ctx it returns ctx
// unchanged and a nil span — the whole call is two pointer lookups.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	r := FromContext(ctx)
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	tctx, task := rtrace.NewTask(ctx, name)
	s := &Span{
		rec:      r,
		name:     name,
		id:       r.NewSpanID(),
		parent:   parent.name,
		parentID: parent.id,
		start:    time.Now(),
		task:     task,
		region:   rtrace.StartRegion(tctx, name),
	}
	return context.WithValue(tctx, spanKey{}, spanRef{name: name, id: s.id}), s
}

// End closes the span, recording its duration. Safe on nil and idempotent.
// End must be called on the goroutine that called StartSpan (the
// runtime/trace region contract); the cross-goroutine task is ended too.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	d := time.Since(s.start)
	s.region.End()
	s.task.End()
	s.rec.recordSpan(s.name, s.id, s.parent, s.parentID, s.start, d)
}

// SpanContext returns ctx carrying r plus an open parent identity that was
// allocated with NewSpanID rather than StartSpan — how the server parents
// every pipeline stage under a job's pre-allocated root span, whose own
// SpanStats entry is filed later with RecordSpanAt. On a nil recorder the
// context is returned unchanged.
func (r *Recorder) SpanContext(ctx context.Context, name string, id uint64) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(WithRecorder(ctx, r), spanKey{}, spanRef{name: name, id: id})
}

// RecordSpanAt files a span with explicit identity and timing — the
// companion of NewSpanID/SpanContext for spans whose lifetime is not a
// single function scope (a job's root span, the synthetic admission-wait
// span reconstructed from queue timestamps). No-op on a nil recorder.
func (r *Recorder) RecordSpanAt(name string, id, parentID uint64, parentName string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.recordSpan(name, id, parentName, parentID, start, d)
}

// A Timer is the context-free, allocation-free span for per-unit inner
// stages: a value type holding a start time. The zero Timer (from a nil
// recorder) is inert.
type Timer struct {
	rec   *Recorder
	name  string
	start time.Time
}

// StartTimer begins timing a named inner stage. On a nil recorder the
// returned zero Timer costs nothing to stop.
func (r *Recorder) StartTimer(name string) Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{rec: r, name: name, start: time.Now()}
}

// Stop records the elapsed time into the stage histogram (not the
// individual span list — inner stages fan out per region and only their
// distribution matters). No-op on the zero Timer.
func (t Timer) Stop() {
	if t.rec == nil {
		return
	}
	t.rec.Hist(stagePrefix + t.name).Observe(time.Since(t.start))
}

// recordSpan files one finished span: always into the "stage:<name>"
// histogram, and into the individual list while under the global cap and
// the per-name cap, which reads the histogram's count.
func (r *Recorder) recordSpan(name string, id uint64, parent string, parentID uint64, start time.Time, d time.Duration) {
	rel := start.Sub(r.start).Nanoseconds()
	h := r.Hist(stagePrefix + name)
	h.Observe(d)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxRecordedSpans || h.Count() > maxSpansPerName {
		r.spansDropped++
		return
	}
	r.spans = append(r.spans, SpanStats{
		Name:     name,
		ID:       id,
		Parent:   parent,
		ParentID: parentID,
		StartNs:  rel,
		DurNs:    d.Nanoseconds(),
	})
}
