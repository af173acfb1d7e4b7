package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/trace"
)

// sampleProgram is the shared three-loop program (examples/sample.c); the
// loop on line 11 is the analysis target throughout.
const sampleProgram = `
double a[64];
double b[64];
double s;

void main() {
  int i;
  for (i = 0; i < 64; i++) {
    a[i] = 0.5 * i;
  }
  for (i = 0; i < 64; i++) {
    b[i] = 2.0 * a[i] + 1.0;
  }
  for (i = 0; i < 64; i++) {
    s = s + b[i];
  }
  print(s);
}
`

const sampleLine = 11

// expectedRegionsJSON computes the ground-truth bytes the way the CLI's
// -json mode does: straight through the pipeline and the canonical
// encoder, no server involved.
func expectedRegionsJSON(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	mod, err := pipeline.Compile(spec.Filename, sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := pipeline.Analyze(context.Background(), pipeline.Source{Module: mod}, pipeline.Spec{
		Line: spec.Line, Instances: []int{spec.Instance}, DDG: ddg.Options{CharacterizeInts: spec.IntOps},
		Core: core.Options{RelaxReductions: spec.RelaxReductions},
	})
	if err != nil {
		t.Fatalf("direct analysis: %v", err)
	}
	js, err := report.RegionsJSON(regs)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// multipartBody builds a submission body with the given parts.
func multipartBody(t testing.TB, spec JobSpec, source string, payload []byte) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	cfg, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name string
		data []byte
	}{{partConfig, cfg}, {partSource, []byte(source)}, {partTrace, payload}} {
		if len(p.data) == 0 {
			continue
		}
		w, err := mw.CreateFormField(p.name)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(p.data)
	}
	mw.Close()
	return mw.FormDataContentType(), buf.Bytes()
}

// submitHTTP posts a job over ts and returns the job id.
func submitHTTP(t testing.TB, ts *httptest.Server, spec JobSpec, source string, payload []byte) string {
	t.Helper()
	ct, body := multipartBody(t, spec, source, payload)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, msg)
	}
	var doc submitDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.ID
}

// fetchResult blocks until the job is terminal and returns its document.
func fetchResult(t testing.TB, ts *httptest.Server, id string) resultDoc {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("result: status %d: %s", resp.StatusCode, msg)
	}
	var doc resultDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// fetchReport blocks until the job is terminal and returns the verbatim
// canonical report bytes.
func fetchReport(t testing.TB, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/report?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestJobLifecycle walks one job through the happy path over HTTP:
// submit, status, result, and the admission ledger.
func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Queue: 4, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Line: sampleLine, Instance: -1}
	id := submitHTTP(t, ts, spec, sampleProgram, nil)
	doc := fetchResult(t, ts, id)
	if doc.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", doc.State, doc.Error)
	}
	if got := fetchReport(t, ts, id); !bytes.Equal(got, expectedRegionsJSON(t, JobSpec{Filename: "prog.c", Line: sampleLine, Instance: -1})) {
		t.Fatalf("service report differs from direct pipeline output:\n%s", got)
	}
	if doc.Stats == nil || doc.Stats.Counters["events_scanned"] == 0 {
		t.Fatalf("job stats missing or empty: %+v", doc.Stats)
	}
	if got := s.rec.Get(obs.JobsAdmitted); got != 1 {
		t.Fatalf("jobs_admitted = %d, want 1", got)
	}
	if got := s.rec.Get(obs.JobsCompleted); got != 1 {
		t.Fatalf("jobs_completed = %d, want 1", got)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after completion = %d, want 0", d)
	}
}

// TestDifferentialConcurrent is the PR's differential proof: 32 concurrent
// service jobs over the same golden input return byte-identical canonical
// JSON — both the cache-hit copies and the cache-miss computations — and
// a cache-disabled server produces the same bytes again.
func TestDifferentialConcurrent(t *testing.T) {
	specs := []JobSpec{
		{Line: sampleLine, Instance: -1},
		{Line: sampleLine, Instance: -1, RelaxReductions: true},
		{Line: 14, Instance: 0, IntOps: true},
		{Line: 8, Instance: -1, Workers: 3, Tile: 2},
	}
	want := make([][]byte, len(specs))
	for i, sp := range specs {
		full := sp
		full.Filename = "prog.c"
		want[i] = expectedRegionsJSON(t, full)
	}

	for _, cache := range []int{64, 0} {
		s := newTestServer(t, Config{Queue: 64, Workers: 4, CacheEntries: cache})
		ts := httptest.NewServer(s.Handler())
		const n = 32
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := i % len(specs)
				id := submitHTTP(t, ts, specs[k], sampleProgram, nil)
				doc := fetchResult(t, ts, id)
				if doc.State != StateDone {
					errs <- fmt.Errorf("job %s: state %q (%s)", id, doc.State, doc.Error)
					return
				}
				if got := fetchReport(t, ts, id); !bytes.Equal(got, want[k]) {
					errs <- fmt.Errorf("job %s (spec %d): bytes differ from direct output", id, k)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		hits, misses := s.rec.Get(obs.CacheHits), s.rec.Get(obs.CacheMisses)
		if cache > 0 {
			if hits == 0 {
				t.Errorf("cache enabled but zero hits (misses=%d)", misses)
			}
			if hits+misses != n {
				t.Errorf("hits+misses = %d, want %d", hits+misses, n)
			}
		} else if hits != 0 {
			t.Errorf("cache disabled but %d hits", hits)
		}
		ts.Close()
		s.Close()
	}
}

// TestTraceUploadDifferential uploads recorded VTR1 and VTR2 traces and
// checks the job output is byte-identical to analyzing the same payload
// directly — including that a VTR2 upload actually takes the container
// path (its footer index parses).
func TestTraceUploadDifferential(t *testing.T) {
	ctx := context.Background()
	mod, err := pipeline.CompileCtx(ctx, "prog.c", sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	var vtr1, vtr2 bytes.Buffer
	if _, err := pipeline.Record(ctx, mod, &vtr1, core.Budget{}, trace.FormatVTR1, trace.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Record(ctx, mod, &vtr2, core.Budget{}, trace.FormatVTR2, trace.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Queue: 8, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, payload := range map[string][]byte{"vtr1": vtr1.Bytes(), "vtr2": vtr2.Bytes()} {
		spec := JobSpec{Line: sampleLine, Instance: -1}
		o, err := trace.OpenTrace(bytes.NewReader(payload), int64(len(payload)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if (o.Container != nil) != (name == "vtr2") {
			t.Fatalf("%s: footer index parsed = %v", name, o.Container != nil)
		}
		regs, err := pipeline.Analyze(ctx, pipeline.Source{Module: mod, Trace: o}, pipeline.Spec{Line: sampleLine, Instances: []int{-1}})
		if err != nil {
			t.Fatalf("%s: direct: %v", name, err)
		}
		want, err := report.RegionsJSON(regs)
		if err != nil {
			t.Fatal(err)
		}
		id := submitHTTP(t, ts, spec, sampleProgram, payload)
		doc := fetchResult(t, ts, id)
		if doc.State != StateDone {
			t.Fatalf("%s: state %q (%s)", name, doc.State, doc.Error)
		}
		if got := fetchReport(t, ts, id); !bytes.Equal(got, want) {
			t.Fatalf("%s: service bytes differ from direct analysis", name)
		}
	}
}

// TestCorruptTraceUpload uploads a truncated trace: the job must fail (or
// degrade) with a typed corrupt-trace error, never crash the service.
func TestCorruptTraceUpload(t *testing.T) {
	ctx := context.Background()
	mod, err := pipeline.CompileCtx(ctx, "prog.c", sampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.Record(ctx, mod, &buf, core.Budget{}, trace.FormatVTR2, trace.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]

	s := newTestServer(t, Config{Queue: 4, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := submitHTTP(t, ts, JobSpec{Line: sampleLine, Instance: -1}, sampleProgram, cut)
	doc := fetchResult(t, ts, id)
	if doc.Error == "" {
		t.Fatalf("truncated trace produced no error (state %q)", doc.State)
	}
	if doc.ErrorKind != "corrupt_trace" {
		t.Fatalf("error kind = %q (%s), want corrupt_trace", doc.ErrorKind, doc.Error)
	}
}

// TestOverloadExactRejections is the PR's overload proof: with the queue
// bound at Q and every slot pinned, K further submissions are rejected
// promptly — exactly K 429s with Retry-After — and the depth gauge never
// exceeds Q. Releasing the gate drains everything and balances the
// admission ledger.
func TestOverloadExactRejections(t *testing.T) {
	const q, k, workers = 4, 3, 2
	gate := make(chan struct{})
	s := newTestServer(t, Config{Queue: q, Workers: workers})
	s.testBeforeRun = func(*Job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill every slot: workers block on the gate, the rest queue. Distinct
	// filenames keep the cache from coalescing the pinned jobs.
	ids := make([]string, q)
	for i := range ids {
		ids[i] = submitHTTP(t, ts, JobSpec{Line: sampleLine, Instance: -1, Filename: fmt.Sprintf("p%d.c", i)}, sampleProgram, nil)
	}
	waitDepth(t, s, q)

	// K over the bound: each must get a prompt 429 with Retry-After.
	for i := 0; i < k; i++ {
		ct, body := multipartBody(t, JobSpec{Line: sampleLine}, sampleProgram, nil)
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload submission %d: status %d (%s), want 429", i, resp.StatusCode, msg)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After header")
		}
	}
	if got := s.rec.Get(obs.JobsRejected); got != k {
		t.Fatalf("jobs_rejected = %d, want %d", got, k)
	}
	if got := s.rec.Get(obs.QueueDepthPeak); got != q {
		t.Fatalf("queue_depth_peak = %d, want %d", got, q)
	}

	close(gate)
	for _, id := range ids {
		if doc := fetchResult(t, ts, id); doc.State != StateDone {
			t.Fatalf("job %s after gate release: state %q (%s)", id, doc.State, doc.Error)
		}
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", d)
	}
	adm, com := s.rec.Get(obs.JobsAdmitted), s.rec.Get(obs.JobsCompleted)
	if adm != q || com != q {
		t.Fatalf("ledger: admitted %d completed %d, want %d each", adm, com, q)
	}
}

// waitDepth polls until the slot gauge reaches want.
func waitDepth(t testing.TB, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", s.QueueDepth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelQueuedAndRunning cancels one queued and one running job and
// checks both reach StateCancelled with their slots returned.
func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{Queue: 4, Workers: 1, CacheEntries: 0})
	s.testBeforeRun = func(j *Job) {
		select {
		case <-gate:
		case <-j.ctx.Done():
		}
	}
	running, err := s.Submit(JobSpec{Line: sampleLine}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{Line: sampleLine, Filename: "q.c"}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first actually runs (single worker: the second stays
	// queued).
	waitState(t, running, StateRunning)

	if _, ok := s.Cancel(queued.ID, errClientCancel); !ok {
		t.Fatal("cancel queued: not found")
	}
	<-queued.Done()
	if st := queued.State(); st != StateCancelled {
		t.Fatalf("queued job state = %q, want cancelled", st)
	}
	// The cancelled job stays buffered and keeps its slot until the (still
	// busy) worker dequeues the no-op: depth holds at 2, preserving the
	// every-buffered-job-holds-a-slot invariant behind enqueue.
	if d := s.QueueDepth(); d != 2 {
		t.Fatalf("depth after queued cancel = %d, want 2", d)
	}

	if _, ok := s.Cancel(running.ID, errClientCancel); !ok {
		t.Fatal("cancel running: not found")
	}
	<-running.Done()
	if st := running.State(); st != StateCancelled {
		t.Fatalf("running job state = %q, want cancelled", st)
	}
	doc := running.status(false)
	if !strings.Contains(doc.Cause, "cancelled by client") {
		t.Fatalf("running cancel cause = %q, want client cancel", doc.Cause)
	}
	if got := s.rec.Get(obs.JobsCancelled); got != 2 {
		t.Fatalf("jobs_cancelled = %d, want 2", got)
	}
	waitDepthZero(t, s)
	close(gate)
}

// TestCancelQueuedResubmit is the regression test for the cancel+resubmit
// deadlock: a job cancelled while queued stays buffered in the queue
// channel, so its slot must stay held until the worker's no-op dequeue.
// Freeing it at cancel time let resubmissions overfill the channel until
// enqueue blocked holding the queue lock, wedging every worker. With the
// slot held, a resubmit while the worker is busy gets a prompt
// ErrQueueFull, and everything drains once the worker frees up.
func TestCancelQueuedResubmit(t *testing.T) {
	gate := make(chan struct{})
	s := newTestServer(t, Config{Queue: 2, Workers: 1, CacheEntries: 0})
	s.testBeforeRun = func(j *Job) {
		select {
		case <-gate:
		case <-j.ctx.Done():
		}
	}
	running, err := s.Submit(JobSpec{Line: sampleLine}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := s.Submit(JobSpec{Line: sampleLine, Filename: "q.c"}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID, errClientCancel); !ok {
		t.Fatal("cancel queued: not found")
	}
	<-queued.Done()

	// The cancelled job still holds its slot, so resubmits are rejected
	// promptly instead of buffering past the channel's capacity.
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(JobSpec{Line: sampleLine, Filename: "r.c"}, sampleProgram, nil); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("resubmit %d after queued cancel: err = %v, want ErrQueueFull", i, err)
		}
	}
	if got := s.rec.Get(obs.JobsCancelled); got != 1 {
		t.Fatalf("jobs_cancelled = %d, want 1", got)
	}

	// Releasing the worker drains both the running job and the cancelled
	// no-op, returning both slots; admission then works again.
	close(gate)
	<-running.Done()
	waitDepthZero(t, s)
	again, err := s.Submit(JobSpec{Line: sampleLine, Filename: "r.c"}, sampleProgram, nil)
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	<-again.Done()
	if st := again.State(); st != StateDone {
		t.Fatalf("post-drain job state = %q, want done", st)
	}
}

// TestResubmitOnDoneFindsFreeSlot is the regression test for waking a
// job's waiters before its queue slot was freed: a client that resubmits
// the moment Done fires must be admitted, and the depth must already read
// zero, even on a one-slot queue.
func TestResubmitOnDoneFindsFreeSlot(t *testing.T) {
	s := newTestServer(t, Config{Queue: 1, Workers: 1})
	for i := 0; i < 300; i++ {
		j, err := s.Submit(JobSpec{Line: sampleLine}, sampleProgram, nil)
		if err != nil {
			t.Fatalf("cycle %d: submit refused right after the previous job's Done: %v", i, err)
		}
		<-j.Done()
		if d := s.QueueDepth(); d != 0 {
			t.Fatalf("cycle %d: queue depth %d after Done, want 0", i, d)
		}
	}
}

func waitState(t testing.TB, j *Job, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %s state %q never reached %q", j.ID, j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDepthZero(t testing.TB, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never drained", s.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicIsolation injects a panic into a job body: the result must
// carry a typed *core.UnitError (kind "panic" with a stack) while the
// worker pool and subsequent jobs keep working.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Queue: 4, Workers: 1, CacheEntries: 0})
	poison := true
	s.testBeforeRun = func(*Job) {
		if poison {
			poison = false
			panic("poisoned job")
		}
	}
	bad, err := s.Submit(JobSpec{Line: sampleLine}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if st := bad.State(); st != StateFailed {
		t.Fatalf("poisoned job state = %q, want failed", st)
	}
	doc := bad.status(false)
	if doc.ErrorKind != "panic" {
		t.Fatalf("error kind = %q (%s), want panic", doc.ErrorKind, doc.Error)
	}
	var ue *core.UnitError
	bad.mu.Lock()
	ok := errors.As(bad.err, &ue)
	bad.mu.Unlock()
	if !ok || ue.Stack == nil {
		t.Fatalf("poisoned job error is not a stack-carrying UnitError: %v", doc.Error)
	}
	if got := s.rec.Get(obs.JobsFailed); got != 1 {
		t.Fatalf("jobs_failed = %d, want 1", got)
	}

	// The same worker must survive to run the next job.
	good, err := s.Submit(JobSpec{Line: sampleLine, Filename: "ok.c"}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-good.Done()
	if st := good.State(); st != StateDone {
		t.Fatalf("job after panic: state %q, want done", st)
	}
}

// TestDrainGraceful starts jobs, begins a drain, checks new submissions
// get ErrDraining/503, and verifies in-flight jobs finish and the drain
// returns clean.
func TestDrainGraceful(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Queue: 8, Workers: 2, CacheEntries: 0})
	s.testBeforeRun = func(*Job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := []string{
		submitHTTP(t, ts, JobSpec{Line: sampleLine, Filename: "a.c"}, sampleProgram, nil),
		submitHTTP(t, ts, JobSpec{Line: sampleLine, Filename: "b.c"}, sampleProgram, nil),
		submitHTTP(t, ts, JobSpec{Line: sampleLine, Filename: "c.c"}, sampleProgram, nil),
	}
	waitDepth(t, s, 3)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Draining must reject new work with 503 + Retry-After.
	waitDraining(t, s)
	ct, body := multipartBody(t, JobSpec{Line: sampleLine}, sampleProgram, nil)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain without Retry-After")
	}

	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain returned %v, want nil (clean)", err)
	}
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s evicted during drain", id)
		}
		if st := j.State(); st != StateDone {
			t.Fatalf("job %s after clean drain: state %q, want done", id, st)
		}
	}
	adm := s.rec.Get(obs.JobsAdmitted)
	fin := s.rec.Get(obs.JobsCompleted) + s.rec.Get(obs.JobsFailed) + s.rec.Get(obs.JobsCancelled)
	if adm != fin || adm != 3 {
		t.Fatalf("ledger after drain: admitted %d terminal %d, want 3 each", adm, fin)
	}
}

func waitDraining(t testing.TB, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainCheckpointFail expires the drain budget while a job is pinned:
// the job must be checkpoint-failed by cancellation (cause naming the
// drain), the workers must still exit, and Drain reports the deadline.
func TestDrainCheckpointFail(t *testing.T) {
	s := New(Config{Queue: 4, Workers: 1, CacheEntries: 0})
	s.testBeforeRun = func(j *Job) { <-j.ctx.Done() } // pinned until cancelled
	j, err := s.Submit(JobSpec{Line: sampleLine}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	<-j.Done()
	if st := j.State(); st != StateCancelled {
		t.Fatalf("checkpoint-failed job state = %q, want cancelled", st)
	}
	doc := j.status(false)
	if !strings.Contains(doc.Cause, "checkpoint-failed") {
		t.Fatalf("cause = %q, want drain checkpoint", doc.Cause)
	}
}

// TestUploadGuards exercises the submission guards: oversized bodies get
// 413, malformed multipart gets 400, and every rejection releases its
// reserved slot.
func TestUploadGuards(t *testing.T) {
	s := newTestServer(t, Config{Queue: 2, Workers: 1, MaxUploadBytes: 1 << 12})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(ct string, body []byte) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Oversized upload: a trace payload far past MaxUploadBytes.
	ct, body := multipartBody(t, JobSpec{Line: sampleLine}, sampleProgram, bytes.Repeat([]byte{0xEE}, 1<<14))
	if resp := post(ct, body); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}
	// Malformed multipart: truncated mid-part.
	ct, body = multipartBody(t, JobSpec{Line: sampleLine}, sampleProgram, nil)
	if resp := post(ct, body[:len(body)/2]); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated multipart: status %d, want 400", resp.StatusCode)
	}
	// Unknown part name.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	w, _ := mw.CreateFormField("nonsense")
	w.Write([]byte("x"))
	mw.Close()
	if resp := post(mw.FormDataContentType(), buf.Bytes()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown part: status %d, want 400", resp.StatusCode)
	}
	// Bad config JSON.
	buf.Reset()
	mw = multipart.NewWriter(&buf)
	w, _ = mw.CreateFormField(partConfig)
	w.Write([]byte(`{"kind": 42}`))
	mw.Close()
	if resp := post(mw.FormDataContentType(), buf.Bytes()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config: status %d, want 400", resp.StatusCode)
	}

	// Every rejection must have released its reservation.
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after rejected uploads = %d, want 0", d)
	}
	// And the server still accepts clean work.
	id := submitHTTP(t, ts, JobSpec{Line: sampleLine}, sampleProgram, nil)
	if doc := fetchResult(t, ts, id); doc.State != StateDone {
		t.Fatalf("clean job after rejections: state %q (%s)", doc.State, doc.Error)
	}
}

// TestCacheSingleFlight pins the single-flight semantics directly on the
// cache: concurrent identical computations coalesce onto one leader, a
// failing leader is never cached, and its waiters retry.
func TestCacheSingleFlight(t *testing.T) {
	c := newResultCache(8)
	rec := obs.New()
	var computes int32
	var mu sync.Mutex
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, err := c.do(context.Background(), "k", rec, func() ([]byte, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-release
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = out
		}(i)
	}
	// Let every goroutine reach the cache before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (single flight)", computes)
	}
	for i, r := range results {
		if string(r) != "result" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
	if hits := rec.Get(obs.CacheHits); hits != n-1 {
		t.Fatalf("cache_hits = %d, want %d", hits, n-1)
	}

	// Failure path: the error is returned but never cached.
	boom := errors.New("boom")
	if _, _, err := c.do(context.Background(), "fail", rec, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want boom", err)
	}
	out, hit, err := c.do(context.Background(), "fail", rec, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(out) != "ok" {
		t.Fatalf("retry after failed leader: out=%q hit=%v err=%v", out, hit, err)
	}
}

// TestCacheEviction checks the FIFO bound holds.
func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	rec := obs.New()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		c.do(context.Background(), key, rec, func() ([]byte, error) { return []byte(key), nil })
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n > 2 {
		t.Fatalf("cache holds %d entries, bound is 2", n)
	}
}

// TestTableEndpoint checks GET /v1/tables/{n} serves the canonical table
// JSON — byte-identical to report.TableJSON — and that repeats hit the
// cache.
func TestTableEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("table regeneration runs every benchmark")
	}
	want, err := report.TableJSON(context.Background(), 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Queue: 4, Workers: 2, CacheEntries: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/tables/2")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tables/2 attempt %d: status %d: %s", i, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tables/2 attempt %d differs from report.TableJSON", i)
		}
	}
	if hits := s.rec.Get(obs.CacheHits); hits != 1 {
		t.Fatalf("cache_hits after repeat table fetch = %d, want 1", hits)
	}
}

// TestBudgetCeiling checks a job cannot out-budget the server: the
// server-wide step ceiling fails a job that would otherwise run.
func TestBudgetCeiling(t *testing.T) {
	s := newTestServer(t, Config{Queue: 2, Workers: 1, CacheEntries: 0,
		Budget: core.Budget{MaxSteps: 10}})
	j, err := s.Submit(JobSpec{Line: sampleLine, MaxSteps: 1 << 40}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.State(); st != StateFailed {
		t.Fatalf("over-budget job state = %q, want failed", st)
	}
	if kind := j.status(false).ErrorKind; kind != "resource_limit" {
		t.Fatalf("error kind = %q, want resource_limit", kind)
	}
}

// TestJobDeadlineCause checks the per-job deadline fires with a cause
// naming the job deadline (not the server ceiling).
func TestJobDeadlineCause(t *testing.T) {
	s := newTestServer(t, Config{Queue: 2, Workers: 1, CacheEntries: 0,
		JobTimeout: time.Minute})
	s.testBeforeRun = func(j *Job) {
		// Burn the job's 10ms deadline before the analysis starts.
		time.Sleep(30 * time.Millisecond)
	}
	j, err := s.Submit(JobSpec{Line: sampleLine, TimeoutMs: 10}, sampleProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.State(); st != StateCancelled {
		t.Fatalf("timed-out job state = %q, want cancelled", st)
	}
	doc := j.status(false)
	if !strings.Contains(doc.Cause, "job deadline") || strings.Contains(doc.Cause, "server job deadline") {
		t.Fatalf("cause = %q, want the job deadline (not the server ceiling)", doc.Cause)
	}
}

// TestSingleInstanceFailureNotCached: a single-instance job whose region
// fails its analysis carries the failure alongside its report, so the
// cache refuses it and a resubmission recomputes.
func TestSingleInstanceFailureNotCached(t *testing.T) {
	s := newTestServer(t, Config{Queue: 2, Workers: 1, CacheEntries: 8})
	spec := JobSpec{Line: sampleLine, Instance: 0, MaxAnalysisBytes: 256}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(spec, sampleProgram, nil)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if kind := j.status(false).ErrorKind; kind != "resource_limit" {
			t.Fatalf("submission %d: error kind = %q, want resource_limit", i, kind)
		}
	}
	if hits := s.rec.Get(obs.CacheHits); hits != 0 {
		t.Fatalf("cache_hits = %d, want 0: a failed region's report was cached", hits)
	}
}
