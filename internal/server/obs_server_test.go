package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/example/vectrace/internal/obs"
)

// submitWithTraceparent posts a job carrying a caller traceparent and
// returns the submission document plus the echoed response header.
func submitWithTraceparent(t *testing.T, ts *httptest.Server, header string) (submitDoc, string) {
	t.Helper()
	ct, body := multipartBody(t, JobSpec{Filename: "sample.c", Line: sampleLine, Instance: -1},
		sampleProgram, nil)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	if header != "" {
		req.Header.Set("traceparent", header)
	}
	resp, err := ts.Client().Do(req)
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
	return doc, resp.Header.Get("traceparent")
}

// fetchTrace blocks until the job is terminal and returns its trace doc.
func fetchTrace(t *testing.T, ts *httptest.Server, id string) traceDoc {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/trace?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace: status %d: %s", resp.StatusCode, msg)
	}
	var doc traceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestTraceTree: the trace endpoint serves the job's decomposition — an
// ingress traceparent is adopted and echoed, the root "job" span covers
// submit→terminal, and the stage spans under it account for the job's wall
// time.
func TestTraceTree(t *testing.T) {
	s := newTestServer(t, Config{Queue: 4, Workers: 2, Recorder: obs.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const callerTrace = "0af7651916cd43dd8448eb211c80319c"
	const callerSpan = "b7ad6b7169203331"
	doc, echoed := submitWithTraceparent(t, ts, "00-"+callerTrace+"-"+callerSpan+"-01")

	// The job joins the caller's trace, and the echo names the job's own
	// root span within it.
	if doc.TraceID != callerTrace {
		t.Errorf("job trace id = %q, want the caller's %q", doc.TraceID, callerTrace)
	}
	if doc.TraceURL != "/v1/jobs/"+doc.ID+"/trace" {
		t.Errorf("trace url = %q", doc.TraceURL)
	}
	gotTrace, gotSpan, ok := obs.ParseTraceparent(echoed)
	if !ok || gotTrace != callerTrace {
		t.Fatalf("echoed traceparent %q: parsed %q ok=%v", echoed, gotTrace, ok)
	}
	if gotSpan == callerSpan {
		t.Error("echoed span id is the caller's, want the job's root span")
	}

	td := fetchTrace(t, ts, doc.ID)
	tree := td.Tree
	if tree == nil || tree.TraceID != callerTrace || tree.RemoteParentSpanID != callerSpan {
		t.Fatalf("tree = %+v, want caller's trace and remote parent", tree)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("tree has %d roots, want the single job span", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Name != "job" || root.SpanID != gotSpan || root.ParentSpanID != callerSpan {
		t.Fatalf("root = name %q span %q parent %q", root.Name, root.SpanID, root.ParentSpanID)
	}

	// The decomposition: admission-wait plus the pipeline stages plus the
	// report encode, all direct children of the root.
	names := map[string]*obs.TraceSpan{}
	for _, c := range root.Children {
		names[c.Name] = c
	}
	for _, want := range []string{"admission-wait", "parse", "check", "lower", "region-analyze", "report"} {
		if names[want] == nil {
			t.Errorf("root has no %q child (children: %d)", want, len(root.Children))
		}
	}

	// Stage durations account for the job's wall time: every child nests
	// inside the root's window, and the summed child time does not exceed
	// it (small slack for clock granularity).
	var sum int64
	for _, c := range root.Children {
		sum += c.DurNs
		if c.StartNs < root.StartNs-int64(time.Millisecond) ||
			c.StartNs+c.DurNs > root.StartNs+root.DurNs+int64(time.Millisecond) {
			t.Errorf("child %q [%d,+%d] outside root window [%d,+%d]",
				c.Name, c.StartNs, c.DurNs, root.StartNs, root.DurNs)
		}
	}
	slack := root.DurNs/2 + int64(25*time.Millisecond)
	if sum > root.DurNs+int64(time.Millisecond) {
		t.Errorf("children sum %dns exceeds root %dns", sum, root.DurNs)
	}
	if root.DurNs-sum > slack {
		t.Errorf("children sum %dns leaves %dns of root %dns unaccounted (slack %dns)",
			sum, root.DurNs-sum, root.DurNs, slack)
	}
}

// TestTraceWithoutHeader: a submission with no (or a malformed)
// traceparent still gets a locally generated trace — malformed headers are
// ignored, never rejected.
func TestTraceWithoutHeader(t *testing.T) {
	s := newTestServer(t, Config{Queue: 4, Workers: 2, Recorder: obs.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc, echoed := submitWithTraceparent(t, ts, "not-a-traceparent")
	if len(doc.TraceID) != 32 {
		t.Errorf("generated trace id = %q", doc.TraceID)
	}
	if gt, _, ok := obs.ParseTraceparent(echoed); !ok || gt != doc.TraceID {
		t.Errorf("echoed traceparent %q does not carry the job's trace id %q", echoed, doc.TraceID)
	}
	td := fetchTrace(t, ts, doc.ID)
	if td.Tree.TraceID != doc.TraceID || td.Tree.RemoteParentSpanID != "" {
		t.Errorf("tree = trace %q remote %q", td.Tree.TraceID, td.Tree.RemoteParentSpanID)
	}
}

// TestObservabilityByteIdentity is the PR's differential invariant: the
// report bytes with every observability knob on (logger, flight recorder,
// ingress traceparent, recorder) equal the bytes with everything off, and
// both equal the CLI's direct -json output.
func TestObservabilityByteIdentity(t *testing.T) {
	spec := JobSpec{Filename: "sample.c", Line: sampleLine, Instance: -1}
	want := expectedRegionsJSON(t, spec)

	// Everything off: zero-config server, plain submission.
	bare := newTestServer(t, Config{Queue: 4, Workers: 2})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	idBare := submitHTTP(t, tsBare, spec, sampleProgram, nil)
	repBare := fetchReport(t, tsBare, idBare)

	// Everything on: recorder, NDJSON logger, flight ring, and a caller
	// traceparent on the submission.
	var logs lockedBuffer
	logger, err := obs.NewLogger(&logs, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	full := newTestServer(t, Config{
		Queue:    4,
		Workers:  2,
		Recorder: obs.New(),
		Logger:   logger,
		Flight:   obs.NewFlightRecorder(64),
	})
	tsFull := httptest.NewServer(full.Handler())
	defer tsFull.Close()
	doc, _ := submitWithTraceparent(t, tsFull, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	repFull := fetchReport(t, tsFull, doc.ID)

	if !bytes.Equal(repBare, want) {
		t.Error("bare-server report differs from direct -json bytes")
	}
	if !bytes.Equal(repFull, repBare) {
		t.Error("report bytes change when observability is on — the instrumentation perturbed the analysis")
	}
	if logs.Len() == 0 {
		t.Error("full-observability run emitted no log records")
	}
}

// TestLifecycleObservability: a completed job leaves the expected
// footprint — flight events, structured lifecycle logs carrying the trace
// id, server-side job/stage histograms, and a lintable /metrics.
func TestLifecycleObservability(t *testing.T) {
	var logs lockedBuffer
	logger, err := obs.NewLogger(&logs, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewFlightRecorder(64)
	s := newTestServer(t, Config{
		Queue: 4, Workers: 2,
		Recorder: obs.New(), Logger: logger, Flight: flight,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Filename: "sample.c", Line: sampleLine, Instance: -1}
	id := submitHTTP(t, ts, spec, sampleProgram, nil)
	fetchReport(t, ts, id)

	kinds := map[string]bool{}
	for _, e := range flight.Snapshot() {
		kinds[e.Kind] = true
		if e.Job != id {
			t.Errorf("flight event %q for job %q, want %q", e.Kind, e.Job, id)
		}
	}
	for _, want := range []string{"admit", "start", "complete"} {
		if !kinds[want] {
			t.Errorf("flight ring missing %q event (got %v)", want, kinds)
		}
	}

	// /debug/flight serves the same ring as JSON.
	resp, err := ts.Client().Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	fbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(fbody), `"kind": "complete"`) {
		t.Errorf("/debug/flight: code %d body %.200s", resp.StatusCode, fbody)
	}

	// Lifecycle logs: admitted and done records exist and agree on the
	// job's trace id.
	var admitted, done map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var m map[string]any
		if json.Unmarshal([]byte(line), &m) != nil {
			t.Fatalf("log line is not JSON: %s", line)
		}
		switch m["msg"] {
		case "job_admitted":
			admitted = m
		case "job_done":
			done = m
		}
	}
	if admitted == nil || done == nil {
		t.Fatalf("lifecycle records missing:\n%s", logs.String())
	}
	tid, _ := admitted["trace_id"].(string)
	if len(tid) != 32 || done["trace_id"] != tid {
		t.Errorf("trace ids: admitted %v, done %v", admitted["trace_id"], done["trace_id"])
	}
	if done["state"] != StateDone {
		t.Errorf("job_done state = %v", done["state"])
	}

	// The finished job's histograms folded into the service recorder.
	hists := s.rec.Snapshot().Histograms
	if hs, ok := hists["job"]; !ok || hs.Count != 1 {
		t.Errorf("service job histogram = %+v ok=%v, want one observation", hs, ok)
	}
	if _, ok := hists["stage:interp"]; !ok {
		t.Error("service recorder has no merged stage:interp histogram")
	}
	if _, ok := hists["http:POST /v1/jobs"]; !ok {
		t.Error("middleware recorded no endpoint histogram")
	}

	// And /metrics exposes it all in lintable exposition.
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("/metrics content type = %q", ct)
	}
	if err := obs.LintExposition(mbody); err != nil {
		t.Errorf("/metrics fails exposition lint: %v", err)
	}
	for _, want := range []string{
		`vectrace_stage_duration_seconds_count{stage="interp"} 1`,
		`vectrace_http_request_duration_seconds_bucket{endpoint="POST /v1/jobs"`,
		`vectrace_duration_seconds_count{op="job"} 1`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRejectFlightEvent: an overload rejection leaves a flight event and a
// sampled warning, so postmortems see the shed load, not just the served.
func TestRejectFlightEvent(t *testing.T) {
	var logs lockedBuffer
	logger, err := obs.NewLogger(&logs, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewFlightRecorder(16)
	s := newTestServer(t, Config{
		Queue: 1, Workers: 1,
		Recorder: obs.New(), Logger: logger, Flight: flight,
	})
	gate := make(chan struct{})
	s.testBeforeRun = func(*Job) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Filename: "sample.c", Line: sampleLine, Instance: -1}
	id := submitHTTP(t, ts, spec, sampleProgram, nil) // pins the only slot
	waitDepth(t, s, 1)
	ct, body := multipartBody(t, spec, sampleProgram, nil)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp.StatusCode)
	}
	var sawReject bool
	for _, e := range flight.Snapshot() {
		if e.Kind == "reject" {
			sawReject = true
		}
	}
	if !sawReject {
		t.Error("rejection left no flight event")
	}
	if !strings.Contains(logs.String(), "job_rejected") {
		t.Errorf("rejection left no warning record:\n%s", logs.String())
	}
	close(gate)
	fetchReport(t, ts, id)
}

// lockedBuffer collects log records that server goroutines (workers, HTTP
// handlers) may still be writing while the test reads them.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Len()
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRouteLabelCardinality: clients choose paths and methods, so a label
// built from them would let any client mint histograms and /metrics
// series without bound. Bogus paths under and outside the job routes and
// unknown methods on real routes must all share one "other" histogram,
// and job ids must collapse into their route's label.
func TestRouteLabelCardinality(t *testing.T) {
	s := newTestServer(t, Config{Queue: 4, Workers: 1, Recorder: obs.New()})
	h := s.Handler()
	serve := func(method, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
		return w
	}
	httpHists := func() map[string]obs.HistogramSnapshot {
		out := map[string]obs.HistogramSnapshot{}
		for name, hs := range s.rec.Snapshot().Histograms {
			if strings.HasPrefix(name, "http:") {
				out[name] = hs
			}
		}
		return out
	}
	for _, path := range []string{"/healthz", "/statsz", "/metrics", "/metrics", "/v1/jobs/j0"} {
		serve(http.MethodGet, path)
	}
	before := len(httpHists())

	const n = 40
	for i := 0; i < n; i++ {
		serve(http.MethodGet, fmt.Sprintf("/v1/jobs/j1/bogus%d", i))
		serve(http.MethodGet, fmt.Sprintf("/v1/jobs/j%d/x/y", i))
		serve(http.MethodGet, fmt.Sprintf("/nowhere/%d", i))
		serve(fmt.Sprintf("FOO%d", i), "/v1/jobs")
		serve(fmt.Sprintf("FOO%d", i), "/healthz")
		serve(http.MethodGet, fmt.Sprintf("/v1/jobs/j%d", i)) // a real route
	}
	after := httpHists()
	if added := len(after) - before; added > 1 {
		var names []string
		for name := range after {
			names = append(names, name)
		}
		t.Errorf("%d requests added %d http histograms, want at most 1 (other): %v",
			6*n, added, names)
	}
	if got := after["http:other"].Count; got != 5*n {
		t.Errorf("http:other count = %d, want %d", got, 5*n)
	}
	if got := after["http:GET /v1/jobs/{id}"].Count; got != n+1 {
		t.Errorf("http:GET /v1/jobs/{id} count = %d, want %d", got, n+1)
	}

	body := serve(http.MethodGet, "/metrics").Body.String()
	if series := strings.Count(body, "vectrace_http_request_duration_seconds_count{"); series != len(after) {
		t.Errorf("/metrics has %d endpoint series, want %d", series, len(after))
	}
}
