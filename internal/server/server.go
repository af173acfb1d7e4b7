package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/diag"
	"github.com/example/vectrace/internal/obs"
)

// Config sizes a Server. The zero value of any field selects a safe
// default; diag.Serve mirrors these knobs as flags for cmd/vectraced.
type Config struct {
	// Queue bounds jobs holding queue slots (queued + running).
	Queue int
	// Workers is the number of jobs executed concurrently.
	Workers int
	// MaxUploadBytes caps one submission body.
	MaxUploadBytes int64
	// UploadTimeout is the per-request body read deadline.
	UploadTimeout time.Duration
	// JobTimeout is the server-wide per-job wall-clock ceiling (0 = none).
	JobTimeout time.Duration
	// CacheEntries bounds the result cache (0 disables caching).
	CacheEntries int
	// Budget holds the server-wide per-job resource ceilings; a job's own
	// config may tighten but never exceed them.
	Budget core.Budget
	// Recorder receives the service-level counters (admission, cache,
	// queue depth). Nil allocates a private one.
	Recorder *obs.Recorder
	// Logger receives structured lifecycle and access records. Nil means
	// no structured logging (every log site keeps its nil fast path).
	Logger *obs.Logger
	// Flight receives lifecycle events for postmortem dumps (nil = off).
	Flight *obs.FlightRecorder
	// FlightDump is where an in-job panic dumps the flight ring (nil =
	// os.Stderr). Tests inject a buffer here.
	FlightDump io.Writer
}

func (c *Config) fillDefaults() {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.UploadTimeout <= 0 {
		c.UploadTimeout = 30 * time.Second
	}
	if c.Recorder == nil {
		c.Recorder = obs.New()
	}
}

// FromServeFlags builds a Config from the diag.Serve flag group. The
// logger and flight ring come from the caller (cmd/vectraced builds both
// from its own flags so the diag debug listener can share the ring).
func FromServeFlags(sf *diag.Serve, rec *obs.Recorder, lg *obs.Logger, flight *obs.FlightRecorder) Config {
	return Config{
		Queue:          sf.Queue,
		Workers:        sf.JobWorkers,
		MaxUploadBytes: sf.MaxUploadBytes,
		UploadTimeout:  sf.UploadTimeout,
		JobTimeout:     sf.JobTimeout,
		CacheEntries:   sf.CacheEntries,
		Budget: core.Budget{
			MaxSteps:         sf.MaxSteps,
			MaxAnalysisBytes: sf.MaxAnalysisBytes,
		},
		Recorder: rec,
		Logger:   lg,
		Flight:   flight,
	}
}

// Server is the vectraced job engine: admission queue, worker pool,
// result cache, job registry, and drain machinery. HTTP handling lives in
// handlers.go; Server itself is transport-agnostic and fully exercisable
// in-process.
type Server struct {
	cfg    Config
	rec    *obs.Recorder
	logger *obs.Logger
	flight *obs.FlightRecorder
	queue  *jobQueue
	cache  *resultCache

	// base is the ancestor of every job context; baseCancel checkpoints
	// outstanding jobs when the drain budget expires.
	base       context.Context
	baseCancel context.CancelCauseFunc
	workers    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // registry insertion order, for bounded retention
	nextID   int
	draining bool

	// testBeforeRun, when set, runs inside the worker after a job turns
	// running and before its body executes — the determinism hook the
	// overload and cancellation tests use to hold jobs at a known point.
	testBeforeRun func(*Job)
}

// retainedJobs bounds the registry: beyond it the oldest terminal jobs
// are forgotten (their results become 404), keeping a long-lived service
// from accumulating every result ever computed.
func retainedJobs(queue int) int {
	if r := 4 * queue; r > 64 {
		return r
	}
	return 64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:    cfg,
		rec:    cfg.Recorder,
		logger: cfg.Logger,
		flight: cfg.Flight,
		queue:  newJobQueue(cfg.Queue),
		cache:  newResultCache(cfg.CacheEntries),
		jobs:   make(map[string]*Job),
	}
	s.base, s.baseCancel = context.WithCancelCause(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue.jobs {
				s.runJob(j)
			}
		}()
	}
	return s
}

// Submit validates a parsed submission, admits it against the queue
// bound, and returns the queued job. The caller must already hold a
// reservation (see reserveSlot); Submit consumes it on success and on
// failure alike. A non-empty traceID (from an ingress traceparent) makes
// the job join the caller's trace with parentSpan as its remote parent.
func (s *Server) submitReserved(spec JobSpec, source string, payload []byte, traceID, parentSpan string) (*Job, error) {
	if err := spec.validate(source != "", len(payload) > 0); err != nil {
		s.releaseSlot()
		return nil, err
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(s.base, id, spec, source, payload, traceID, parentSpan)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictJobsLocked()
	s.mu.Unlock()

	if err := s.queue.enqueue(j); err != nil {
		// Drain closed the intake between reservation and enqueue.
		s.rec.GaugeDec(obs.QueueDepth)
		s.rec.Add(obs.JobsRejected, 1)
		finished := j.finish(StateCancelled, nil, err)
		s.flight.Record("reject", j.ID, j.TraceID(), "draining")
		if finished {
			j.wake()
		}
		return nil, err
	}
	s.rec.Add(obs.JobsAdmitted, 1)
	s.flight.Record("admit", j.ID, j.TraceID(), spec.Kind)
	s.logger.Info("job_admitted",
		"job", j.ID, "trace_id", j.TraceID(), "kind", spec.Kind, "queue_depth", s.queue.Depth())
	return j, nil
}

// Submit is the in-process submission entry point (tests, benchmarks):
// reserve + submit in one call.
func (s *Server) Submit(spec JobSpec, source string, payload []byte) (*Job, error) {
	if err := s.reserveSlot(); err != nil {
		return nil, err
	}
	return s.submitReserved(spec, source, payload, "", "")
}

// reserveSlot claims a queue slot and maintains the depth gauge; the
// admission counters for rejects are the caller's (the reject reason
// decides the status code).
func (s *Server) reserveSlot() error {
	if err := s.queue.reserve(); err != nil {
		s.rec.Add(obs.JobsRejected, 1)
		s.flight.Record("reject", "", "", err.Error())
		// Rejections are the hot event under overload; sample them.
		s.logger.Sampled("reject", slog.LevelWarn, "job_rejected",
			"reason", err.Error(), "queue_depth", s.queue.Depth())
		return err
	}
	s.rec.GaugeInc(obs.QueueDepth, obs.QueueDepthPeak)
	return nil
}

// releaseSlot returns a slot that never became a terminal job.
func (s *Server) releaseSlot() {
	s.queue.unreserve()
	s.rec.GaugeDec(obs.QueueDepth)
}

// Job looks up a registered job.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a queued or running job on a client's behalf.
func (s *Server) Cancel(id string, cause error) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	if j.CancelRequest(cause) {
		// Queued job cancelled in place (CancelRequest performed the
		// transition under j.mu, so this cannot race the worker's finish
		// path). Only the counter moves here: the Job stays buffered in
		// the queue channel, and it keeps its slot until the worker's
		// no-op dequeue — freeing it early would break the "every buffered
		// job holds a slot" invariant that keeps enqueue non-blocking.
		s.rec.Add(obs.JobsCancelled, 1)
	}
	return j, true
}

// evictJobsLocked forgets the oldest terminal jobs beyond the retention
// bound. In-flight jobs are never evicted: they hold queue slots, and the
// slot bound caps how many can exist.
func (s *Server) evictJobsLocked() {
	limit := retainedJobs(s.cfg.Queue)
	for i := 0; len(s.order) > limit && i < len(s.order); {
		id := s.order[i]
		if j := s.jobs[id]; j != nil && !terminal(j.State()) {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = append(s.order[:i], s.order[i+1:]...)
	}
}

// errDrainCheckpoint is the cancel cause stamped on jobs the drain budget
// could not wait for.
var errDrainCheckpoint = fmt.Errorf("server: drain deadline reached, job checkpoint-failed: %w", context.Canceled)

// Drain performs the graceful shutdown: stop admitting (429→503), let
// queued and running jobs finish, and when ctx expires first,
// checkpoint-fail the stragglers by cancellation so the workers still
// exit cleanly. It returns nil when every job completed and ctx.Err()
// when the deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.flight.Record("drain", "", "", "")
	s.logger.Info("drain_started", "queue_depth", s.queue.Depth())
	s.queue.close()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel(errDrainCheckpoint)
		<-done
		return ctx.Err()
	}
}

// Close drains with a short deadline; for tests.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the live slot count (queued + running jobs).
func (s *Server) QueueDepth() int { return s.queue.Depth() }

// Stats exports the service-level RunStats document.
func (s *Server) Stats() *obs.RunStats {
	return s.rec.Snapshot().RunStats("vectraced", map[string]any{
		"queue":   s.cfg.Queue,
		"workers": s.cfg.Workers,
	})
}

// runJob is the worker body: one job from running to terminal, with the
// slot released and the admission ledger balanced on every path.
func (s *Server) runJob(j *Job) {
	if !j.setRunning() {
		// Cancelled while still queued: Cancel already finalized and
		// counted the job; this dequeue just returns its slot.
		s.queue.release(0)
		s.rec.GaugeDec(obs.QueueDepth)
		return
	}
	// The slot is freed exactly once: before the waiters wake on the
	// normal path (a client that resubmits as soon as Done fires must find
	// it free), or by the deferred call if the body panics first.
	var dur time.Duration
	released := false
	release := func() {
		if !released {
			released = true
			s.queue.release(dur)
			s.rec.GaugeDec(obs.QueueDepth)
		}
	}
	defer release()

	// The queue wait becomes a synthetic span under the job's root: the
	// trace tree decomposes submit→terminal into admission-wait plus the
	// pipeline stages, so "slow because queued" is visible as a span, not
	// an inference.
	started := j.startedLocked()
	wait := started.Sub(j.submitted)
	j.rec.RecordSpanAt("admission-wait", j.rec.NewSpanID(), j.rootSpan, "job", j.submitted, wait)
	s.flight.Record("start", j.ID, j.TraceID(), "")

	// Compose the context stack: job lifetime (client cancel, drain
	// checkpoint) → per-job recorder parented under the job's root span →
	// server deadline ceiling → the job's own deadline. Shortest deadline
	// wins natively; the causes name which one fired.
	ctx := j.rec.SpanContext(j.ctx, "job", j.rootSpan)
	ctx, cancelSrv := diag.DeadlineContext(ctx, s.cfg.JobTimeout, "server job deadline")
	defer cancelSrv()
	ctx, cancelJob := diag.DeadlineContext(ctx, time.Duration(j.Spec.TimeoutMs)*time.Millisecond, "job deadline")
	defer cancelJob()

	key := cacheKey(j.Spec, j.source, j.payload)
	ceil := s.cfg.Budget
	report, hit, err := s.cache.do(ctx, key, s.rec, func() (rep []byte, rerr error) {
		// Panic isolation: a poisoned job yields a typed *core.UnitError
		// (with the recovered stack) in this job's result; the worker and
		// every other tenant are untouched.
		rerr = core.Guard(0, "job", int64(j.Spec.Line), func() error {
			if h := s.testBeforeRun; h != nil {
				h(j)
			}
			var e error
			rep, e = j.run(ctx, ceil)
			return e
		})
		return rep, rerr
	})

	// A cancelled job stays cancelled even when the computation raced to
	// completion first (tiny jobs can finish before the cooperative
	// cancellation check runs): the client asked for it not to count.
	if cause := context.Cause(ctx); cause != nil && err == nil {
		err = cause
		report = nil
	}
	j.mu.Lock()
	j.cacheHit = hit
	if cause := context.Cause(ctx); cause != nil {
		j.cause = cause
	}
	j.mu.Unlock()

	// Terminal state: cancellation trumps everything (a partial report
	// from a cancelled run is not a result); otherwise a report — even a
	// degraded one with failed regions — counts as done, and only a
	// report-less failure is failed.
	state := StateDone
	if err != nil {
		switch {
		case errorKind(err) == "cancelled":
			state = StateCancelled
			report = nil
		case report == nil:
			state = StateFailed
		}
	}
	finished := j.finish(state, report, err)
	if finished {
		switch state {
		case StateDone:
			s.rec.Add(obs.JobsCompleted, 1)
		case StateFailed:
			s.rec.Add(obs.JobsFailed, 1)
		case StateCancelled:
			s.rec.Add(obs.JobsCancelled, 1)
		}
	}
	dur = j.elapsedLocked()

	// Close the trace tree: the root "job" span covers submit→terminal, so
	// its duration is the sum of admission-wait plus the executed stages
	// (within scheduling slack). The job duration feeds the job recorder's
	// "job" histogram, and the merge below folds it — with every per-stage
	// histogram — into the service-wide ones (mergeable by construction),
	// so each job lands exactly once in the service distributions.
	total := time.Since(j.submitted)
	j.rec.RecordSpanAt("job", j.rootSpan, 0, "", j.submitted, total)
	j.rec.ObserveDur("job", total)
	s.rec.AddHistograms(j.rec.Snapshot().Histograms)

	kind := flightKind(state)
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	if err != nil && errorKind(err) == "panic" {
		// A panicking job is the postmortem case the flight recorder
		// exists for: record it, then dump the ring while it still holds
		// the surrounding events.
		s.flight.Record("panic", j.ID, j.TraceID(), detail)
		s.dumpFlight()
	}
	s.flight.Record(kind, j.ID, j.TraceID(), detail)
	s.logger.Info("job_done",
		"job", j.ID, "trace_id", j.TraceID(), "state", state,
		"cache_hit", hit, "wait_ms", wait.Milliseconds(), "run_ms", dur.Milliseconds(),
		"error", detail)
	release()
	if finished {
		j.wake()
	}
}

// flightKind maps a terminal state to its flight-event kind.
func flightKind(state string) string {
	switch state {
	case StateDone:
		return "complete"
	case StateCancelled:
		return "cancel"
	default:
		return "fail"
	}
}

// dumpFlight writes the flight ring's text dump to the configured sink.
func (s *Server) dumpFlight() {
	if s.flight == nil {
		return
	}
	w := s.cfg.FlightDump
	if w == nil {
		w = os.Stderr
	}
	s.flight.WriteText(w) //nolint:errcheck
}

// elapsedLocked reads the job's elapsed time under its lock.
func (j *Job) elapsedLocked() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.elapsed
}

// startedLocked reads the job's run start time under its lock.
func (j *Job) startedLocked() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started
}
