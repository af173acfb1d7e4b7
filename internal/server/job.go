// Package server is the vectraced job layer: a bounded, multi-tenant
// analysis service wrapped around the existing pipeline. Its defining
// property is graceful degradation — overload, hostile inputs, and
// per-job faults degrade the affected request, never the process:
//
//   - Admission control: jobs hold slots in a bounded queue; a full queue
//     rejects with 429 + Retry-After instead of buffering without bound,
//     so steady-state memory stays bounded by Q × the per-job budget.
//   - Tenant isolation: every job runs under its own core.Budget and a
//     composed deadline stack (server ceiling ∧ job deadline, shortest
//     wins, the cancel cause names which fired), so a hostile trace burns
//     only its own job.
//   - Panic isolation: a poisoned job surfaces a typed *core.UnitError in
//     its result; the worker, the queue, and every other job keep going.
//   - Upload guards: size caps, slow-client read deadlines, and
//     per-region corrupt-trace degradation on the payloads themselves.
//   - A content-addressed result cache (input hash × analysis config →
//     report JSON) with single-flight dedup makes repeat traffic ~free.
//   - Graceful drain: shutdown stops admitting, finishes or
//     checkpoint-fails in-flight jobs, and leaves the stats flushable.
//
// Results are the canonical report JSON (internal/report), byte-identical
// to the CLI's -json output for the same inputs.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/trace"
)

// Job kinds.
const (
	// KindAnalyze runs the dynamic region analysis of one loop of an
	// uploaded MiniC program — executed live, or replayed from an uploaded
	// VTR1/VTR2 trace when the submission carries one.
	KindAnalyze = "analyze"
	// KindTable regenerates one of the paper's Tables 1–3 as JSON.
	KindTable = "table"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobSpec is the job-config JSON of one submission (the "config" part of
// the multipart form, or the "config" field of a JSON submission). The
// zero value of every knob selects the server default; budgets may only
// tighten the server-wide ceilings, never exceed them.
type JobSpec struct {
	// Kind selects the computation: KindAnalyze (default) or KindTable.
	Kind string `json:"kind,omitempty"`
	// Filename labels the uploaded source in diagnostics (default
	// "prog.c").
	Filename string `json:"filename,omitempty"`
	// Line is the source line of the loop to analyze (required for
	// analyze jobs).
	Line int `json:"line,omitempty"`
	// Instance selects which dynamic execution of the loop to analyze;
	// negative means every region. The default (0) is the first region,
	// matching `vectrace analyze`.
	Instance int `json:"instance,omitempty"`
	// Table selects the table (1–3) for table jobs.
	Table int `json:"table,omitempty"`
	// Workers / ScanWorkers tune the analysis exactly like the CLI flags
	// of the same names; output bytes are identical for any values.
	Workers int `json:"workers,omitempty"`
	// Tile is accepted and ignored. It selected the tile width of an
	// analysis engine that no longer exists; the field stays so existing
	// clients are not rejected as sending an unknown field.
	Tile        int `json:"tile,omitempty"`
	ScanWorkers int `json:"scan_workers,omitempty"`
	// RelaxReductions / IntOps select the analysis variants.
	RelaxReductions bool `json:"relax_reductions,omitempty"`
	IntOps          bool `json:"int_ops,omitempty"`
	// TimeoutMs is the job's own wall-clock deadline in milliseconds; it
	// composes with the server-wide ceiling (shortest wins).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// MaxSteps / MaxDepth / MaxStackBytes / MaxAnalysisBytes tighten the
	// job's core.Budget below the server ceilings.
	MaxSteps         int64 `json:"max_steps,omitempty"`
	MaxDepth         int   `json:"max_depth,omitempty"`
	MaxStackBytes    int64 `json:"max_stack_bytes,omitempty"`
	MaxAnalysisBytes int64 `json:"max_analysis_bytes,omitempty"`
}

// validate normalizes and checks a spec against the submission's parts.
func (sp *JobSpec) validate(hasSource, hasTrace bool) error {
	if sp.Kind == "" {
		sp.Kind = KindAnalyze
	}
	switch sp.Kind {
	case KindAnalyze:
		if !hasSource {
			return fmt.Errorf("analyze job needs a %q part (MiniC program text)", partSource)
		}
		if sp.Line <= 0 {
			return fmt.Errorf("analyze job needs a positive config line, got %d", sp.Line)
		}
	case KindTable:
		if sp.Table < 1 || sp.Table > 3 {
			return fmt.Errorf("table job needs config table 1-3, got %d", sp.Table)
		}
		if hasTrace {
			return fmt.Errorf("table job takes no trace upload")
		}
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", sp.Kind, KindAnalyze, KindTable)
	}
	if sp.Filename == "" {
		sp.Filename = "prog.c"
	}
	if sp.TimeoutMs < 0 || sp.MaxSteps < 0 || sp.MaxDepth < 0 || sp.MaxStackBytes < 0 || sp.MaxAnalysisBytes < 0 {
		return fmt.Errorf("limits must be non-negative")
	}
	return nil
}

// budget composes the job's requested limits with the server ceilings:
// each field is the tightest positive bound of the two.
func (sp *JobSpec) budget(ceil core.Budget) core.Budget {
	tight := func(job, server int64) int64 {
		switch {
		case job <= 0:
			return server
		case server <= 0:
			return job
		case job < server:
			return job
		default:
			return server
		}
	}
	return core.Budget{
		MaxSteps:         tight(sp.MaxSteps, ceil.MaxSteps),
		MaxDepth:         int(tight(int64(sp.MaxDepth), int64(ceil.MaxDepth))),
		MaxStackBytes:    tight(sp.MaxStackBytes, ceil.MaxStackBytes),
		MaxAnalysisBytes: tight(sp.MaxAnalysisBytes, ceil.MaxAnalysisBytes),
	}
}

// coreOptions maps the spec onto analysis options.
func (sp *JobSpec) coreOptions(b core.Budget) core.Options {
	return core.Options{
		RelaxReductions: sp.RelaxReductions,
		Workers:         sp.Workers,
		Budget:          b,
	}
}

// A Job is one admitted submission moving through the queue.
type Job struct {
	// ID is the job's registry key ("j000042").
	ID string
	// Spec is the validated job configuration.
	Spec JobSpec

	source  string
	payload []byte // optional uploaded trace
	rec     *obs.Recorder
	ctx     context.Context
	cancel  context.CancelCauseFunc

	// traceID is the job's W3C trace id, fixed at admission.
	traceID string
	// rootSpan is the pre-allocated id of the job's root "job" span: it
	// exists from admission (so the submit response can echo a complete
	// traceparent) but its SpanStats entry is only filed when the job
	// terminates, covering submit→terminal.
	rootSpan uint64

	submitted time.Time

	mu       sync.Mutex
	state    string
	cacheHit bool
	reportJS []byte
	err      error
	cause    error // context cause when a deadline or cancellation fired
	started  time.Time
	elapsed  time.Duration
	done     chan struct{}
}

// newJob builds an admitted job rooted at base (the server's lifetime
// context): cancelling the job — client DELETE, drain checkpoint-fail —
// cancels ctx with a cause naming why. A non-empty traceID joins the
// caller's trace (parentSpan becomes the remote parent of the root span);
// otherwise the job starts a trace of its own.
func newJob(base context.Context, id string, spec JobSpec, source string, payload []byte, traceID, parentSpan string) *Job {
	j := &Job{
		ID:        id,
		Spec:      spec,
		source:    source,
		payload:   payload,
		rec:       obs.New(),
		submitted: time.Now(),
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	if traceID != "" {
		j.rec.SetTraceParent(traceID, parentSpan)
	}
	j.traceID = j.rec.EnsureTraceID()
	j.rootSpan = j.rec.NewSpanID()
	j.ctx, j.cancel = context.WithCancelCause(base)
	return j
}

// TraceID returns the job's W3C trace id.
func (j *Job) TraceID() string { return j.traceID }

// Traceparent returns the traceparent header value identifying the job's
// root span — what the submit response echoes back to the client.
func (j *Job) Traceparent() string {
	return obs.Traceparent(j.TraceID(), j.rootSpan)
}

// TraceTree returns the job's span tree as recorded so far.
func (j *Job) TraceTree() *obs.TraceTree { return j.rec.Snapshot().TraceTree() }

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// terminal reports whether s is a terminal state.
func terminal(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// setRunning transitions queued → running. It returns false when the job
// was already cancelled (the worker then skips it).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish transitions to a terminal state exactly once, recording the
// result. Returns false if the job was already terminal; when it returns
// true the caller must call wake.
func (j *Job) finish(state string, reportJS []byte, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.state) {
		return false
	}
	j.state = state
	j.reportJS = reportJS
	j.err = err
	if !j.started.IsZero() {
		j.elapsed = time.Since(j.started)
	}
	return true
}

// wake completes a finish that made the transition: it releases the job
// context's resources and wakes Done's waiters. Callers record the job's
// terminal accounting (counters, trace, flight, logs) between finish and
// wake, so whoever Done wakes sees all of it.
func (j *Job) wake() {
	j.cancel(nil)
	close(j.done)
}

// CancelRequest implements client- and drain-initiated cancellation: a
// queued job terminates immediately; a running job has its context
// cancelled with the given cause and terminates when its worker observes
// the cancellation. It returns whether it performed the queued→cancelled
// transition itself — the one case where the caller, not the worker's
// finish path, owns the terminal accounting. Running and terminal jobs
// return false (the worker settles those races under j.mu).
func (j *Job) CancelRequest(cause error) bool {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return false
	}
	queued := j.state == StateQueued
	if queued {
		j.state = StateCancelled
		j.err = cause
	}
	j.mu.Unlock()
	j.cancel(cause)
	if queued {
		close(j.done)
	}
	return queued
}

// errorKind classifies a job error for the result document, so clients
// branch on a stable token instead of matching error strings.
func errorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrResourceLimit):
		return "resource_limit"
	case errors.Is(err, trace.ErrCorruptTrace):
		return "corrupt_trace"
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		for _, ue := range core.UnitErrors(err) {
			if ue.Stack != nil {
				return "panic"
			}
		}
		return "error"
	}
}

// run executes the job body (inside the worker, under the composed
// deadline context) and returns the canonical report bytes. Panics are
// isolated by the caller's core.Guard; everything here returns errors.
func (j *Job) run(ctx context.Context, ceil core.Budget) ([]byte, error) {
	b := j.Spec.budget(ceil)
	copts := j.Spec.coreOptions(b)
	dopts := ddg.Options{CharacterizeInts: j.Spec.IntOps}
	switch j.Spec.Kind {
	case KindTable:
		return report.TableJSON(ctx, j.Spec.Table, copts)
	default: // KindAnalyze; spec validated at admission
		mod, err := pipeline.CompileCtx(ctx, j.Spec.Filename, j.source)
		if err != nil {
			return nil, err
		}
		src := pipeline.Source{Module: mod, Budget: b}
		if len(j.payload) > 0 {
			// An uploaded trace is format-sniffed exactly like a trace file:
			// a verified VTR2 footer enables indexed seeks and parallel
			// scanning, damaged or VTR1 payloads take the sequential path.
			rec := obs.FromContext(ctx)
			rec.Set(obs.TraceBytesTotal, int64(len(j.payload)))
			if src.Trace, err = trace.OpenTrace(bytes.NewReader(j.payload), int64(len(j.payload)), rec); err != nil {
				return nil, err
			}
		}
		regs, err := pipeline.Analyze(ctx, src, pipeline.Spec{
			Line: j.Spec.Line, Instances: []int{j.Spec.Instance}, DDG: dopts, Core: copts, ScanWorkers: j.Spec.ScanWorkers,
		})
		if len(regs) == 0 {
			return nil, err
		}
		_, sp := obs.StartSpan(ctx, "report")
		js, jerr := report.RegionsJSON(regs)
		sp.End()
		if jerr != nil {
			return nil, jerr
		}
		// A degraded report (some regions failed) still serves: the error
		// travels alongside the bytes and the cache refuses to store it.
		return js, err
	}
}
