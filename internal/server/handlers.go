package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/example/vectrace/internal/obs"
)

// Multipart part names of a job submission.
const (
	partConfig = "config" // JobSpec JSON
	partSource = "source" // MiniC program text
	partTrace  = "trace"  // optional recorded VTR1/VTR2 trace
)

// errorDoc is the body of every non-2xx response.
type errorDoc struct {
	Error string `json:"error"`
	// Kind is a stable token ("queue_full", "draining", "bad_request",
	// "too_large", "timeout", "not_found") for clients that branch.
	Kind string `json:"kind,omitempty"`
}

// submitDoc acknowledges an admitted job.
type submitDoc struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
	TraceID   string `json:"trace_id"`
	TraceURL  string `json:"trace_url"`
}

// statusDoc is one observation of a job: its state machine position plus
// the live counter snapshot from the job's own recorder, so a client can
// watch events_scanned / interp_steps grow while the job runs.
type statusDoc struct {
	ID        string           `json:"id"`
	Kind      string           `json:"kind"`
	State     string           `json:"state"`
	CacheHit  bool             `json:"cache_hit"`
	Error     string           `json:"error,omitempty"`
	ErrorKind string           `json:"error_kind,omitempty"`
	Cause     string           `json:"cause,omitempty"`
	ElapsedNs int64            `json:"elapsed_ns,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
}

// resultDoc is the terminal job document: status plus the canonical
// report bytes and the job's full RunStats.
type resultDoc struct {
	statusDoc
	Report json.RawMessage `json:"report,omitempty"`
	Stats  *obs.RunStats   `json:"stats,omitempty"`
}

// status snapshots a job into its public document.
func (j *Job) status(withCounters bool) statusDoc {
	j.mu.Lock()
	d := statusDoc{
		ID:        j.ID,
		Kind:      j.Spec.Kind,
		State:     j.state,
		CacheHit:  j.cacheHit,
		ElapsedNs: int64(j.elapsed),
	}
	if j.err != nil {
		d.Error = j.err.Error()
		d.ErrorKind = errorKind(j.err)
	}
	if j.cause != nil {
		d.Cause = j.cause.Error()
	}
	j.mu.Unlock()
	if withCounters {
		d.Counters = j.rec.Snapshot().CounterMap()
	}
	return d
}

// result snapshots a terminal job into its result document.
func (j *Job) result() resultDoc {
	d := resultDoc{statusDoc: j.status(false)}
	j.mu.Lock()
	d.Report = json.RawMessage(j.reportJS)
	j.mu.Unlock()
	d.Stats = j.rec.Snapshot().RunStats("job", nil)
	return d
}

// Handler returns the service's HTTP API.
//
//	POST   /v1/jobs             submit (multipart form or JSON body)
//	GET    /v1/jobs/{id}        status snapshot
//	GET    /v1/jobs/{id}/result result (?wait=1 blocks until terminal)
//	GET    /v1/jobs/{id}/progress  status stream (NDJSON until terminal)
//	GET    /v1/jobs/{id}/trace  per-job trace tree (spans with durations)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/tables/{n}       Tables 1-3 as a synchronous job
//	GET    /healthz             liveness + queue depth
//	GET    /statsz              service RunStats document
//	GET    /metrics             Prometheus text exposition
//	GET    /debug/flight        flight-recorder event dump
//
// The whole mux is wrapped by withObs: per-endpoint latency histograms
// plus sampled structured access records.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := map[string]bool{}
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, h)
		routes[pattern] = true
	}
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs/{id}", s.handleStatus)
	handle("GET /v1/jobs/{id}/result", s.handleResult)
	handle("GET /v1/jobs/{id}/report", s.handleReport)
	handle("GET /v1/jobs/{id}/progress", s.handleProgress)
	handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /v1/tables/{n}", s.handleTable)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /statsz", s.handleStatsz)
	handle("GET /metrics", obs.MetricsHandler(s.rec).ServeHTTP)
	handle("GET /debug/flight", obs.FlightHandler(s.flight).ServeHTTP)
	return s.withObs(mux, routes)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a failed response write
}

func writeError(w http.ResponseWriter, code int, kind, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// writeAdmissionError maps the queue's admission errors to their status
// codes, always carrying a Retry-After estimate: backpressure is advice,
// not just rejection.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.queue.retryAfter(s.cfg.Workers)))
	if errors.Is(err, ErrDraining) {
		writeError(w, http.StatusServiceUnavailable, "draining", "%v", err)
		return
	}
	writeError(w, http.StatusTooManyRequests, "queue_full", "%v", err)
}

// submission is the parsed body of one POST /v1/jobs.
type submission struct {
	spec    JobSpec
	source  string
	payload []byte
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission first: the queue slot is reserved before a single body
	// byte is read, so a flood of Q+K submissions costs the server K
	// prompt 429s instead of K buffered request bodies.
	if err := s.reserveSlot(); err != nil {
		s.writeAdmissionError(w, err)
		return
	}

	// Upload guards: a slow client must finish its body within the read
	// deadline (408), and the body may not exceed the size cap (413).
	// SetReadDeadline is unsupported on some test transports; a failed
	// set degrades to the server-level timeouts.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(s.cfg.UploadTimeout)) //nolint:errcheck
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)

	sub, err := parseSubmission(r)
	if err != nil {
		s.releaseSlot()
		code, kind := http.StatusBadRequest, "bad_request"
		var mbe *http.MaxBytesError
		var ne net.Error
		switch {
		case errors.As(err, &mbe):
			code, kind = http.StatusRequestEntityTooLarge, "too_large"
		case errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()):
			code, kind = http.StatusRequestTimeout, "timeout"
		}
		writeError(w, code, kind, "parse submission: %v", err)
		return
	}

	// Trace ingress: a valid W3C traceparent makes the job join the
	// caller's trace; a malformed one is ignored (observability must not
	// reject work). The response echoes the job's own traceparent — trace
	// id plus the root span id the trace tree hangs under.
	traceID, parentSpan, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))

	j, err := s.submitReserved(sub.spec, sub.source, sub.payload, traceID, parentSpan)
	if err != nil {
		if errors.Is(err, ErrDraining) {
			s.writeAdmissionError(w, err)
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	w.Header().Set("traceparent", j.Traceparent())
	writeJSON(w, http.StatusAccepted, submitDoc{
		ID:        j.ID,
		State:     j.State(),
		StatusURL: "/v1/jobs/" + j.ID,
		ResultURL: "/v1/jobs/" + j.ID + "/result",
		TraceID:   j.TraceID(),
		TraceURL:  "/v1/jobs/" + j.ID + "/trace",
	})
}

// parseSubmission decodes the request body: multipart/form-data with
// config/source/trace parts, or a JSON object {"config":..., "source":...}.
func parseSubmission(r *http.Request) (submission, error) {
	var sub submission
	ct := r.Header.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if err != nil && ct != "" {
		return sub, fmt.Errorf("content type %q: %w", ct, err)
	}
	if mediaType == "multipart/form-data" {
		mr := multipart.NewReader(r.Body, params["boundary"])
		if params["boundary"] == "" {
			return sub, fmt.Errorf("multipart submission without boundary")
		}
		return parseMultipart(mr)
	}
	// JSON submission (no trace payloads this way).
	var body struct {
		Config JobSpec `json:"config"`
		Source string  `json:"source"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		return sub, fmt.Errorf("decode JSON submission: %w", err)
	}
	sub.spec, sub.source = body.Config, body.Source
	return sub, nil
}

func parseMultipart(mr *multipart.Reader) (submission, error) {
	var sub submission
	seen := map[string]bool{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sub, fmt.Errorf("read multipart: %w", err)
		}
		name := part.FormName()
		if seen[name] {
			return sub, fmt.Errorf("duplicate part %q", name)
		}
		seen[name] = true
		data, err := io.ReadAll(part)
		part.Close()
		if err != nil {
			return sub, fmt.Errorf("read part %q: %w", name, err)
		}
		switch name {
		case partConfig:
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&sub.spec); err != nil {
				return sub, fmt.Errorf("decode %q part: %w", partConfig, err)
			}
		case partSource:
			sub.source = string(data)
		case partTrace:
			sub.payload = data
		default:
			return sub, fmt.Errorf("unknown part %q (want %q, %q, or %q)",
				name, partConfig, partSource, partTrace)
		}
	}
	return sub, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	if !terminal(j.State()) {
		writeJSON(w, http.StatusAccepted, j.status(false))
		return
	}
	writeJSON(w, http.StatusOK, j.result())
}

// handleReport serves the job's canonical report bytes VERBATIM — no
// re-encoding, no re-indenting — so "service output equals `vectrace
// analyze -json` output" holds byte for byte. (The /result document embeds
// the same report, but its encoder re-indents nested JSON; byte-identity
// consumers use this endpoint.)
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	if !terminal(j.State()) {
		writeJSON(w, http.StatusAccepted, j.status(false))
		return
	}
	j.mu.Lock()
	rep := j.reportJS
	j.mu.Unlock()
	if rep == nil {
		d := j.status(false)
		writeError(w, http.StatusUnprocessableEntity, d.ErrorKind, "job %s produced no report: %s", j.ID, d.Error)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(rep) //nolint:errcheck
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	rc := http.NewResponseController(w)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		enc.Encode(j.status(true)) //nolint:errcheck
		rc.Flush()                 //nolint:errcheck
		select {
		case <-j.Done():
			enc.Encode(j.status(true)) //nolint:errcheck
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

// traceDoc is the GET /v1/jobs/{id}/trace response: the job's span tree
// plus enough job identity to read it standalone.
type traceDoc struct {
	ID    string         `json:"id"`
	State string         `json:"state"`
	Tree  *obs.TraceTree `json:"trace"`
}

// handleTrace serves the job's trace tree. For a terminal job this is the
// complete decomposition (root "job" span = admission-wait + stages +
// report); for a live one it is the spans recorded so far — ?wait=1
// blocks until terminal like the result endpoints do.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	code := http.StatusOK
	if !terminal(j.State()) {
		code = http.StatusAccepted
	}
	writeJSON(w, code, traceDoc{ID: j.ID, State: j.State(), Tree: j.TraceTree()})
}

// errClientCancel is the cause recorded for DELETE-initiated cancels. It
// wraps context.Canceled so the error-kind classifier files it under
// "cancelled" rather than a generic failure.
var errClientCancel = fmt.Errorf("cancelled by client: %w", context.Canceled)

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"), errClientCancel)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleTable runs a table job synchronously: it rides the same admission
// queue (tables are heavy — regenerating one runs every benchmark), so
// overload protection covers them too.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "table %q: %v", r.PathValue("n"), err)
		return
	}
	j, err := s.Submit(JobSpec{Kind: KindTable, Table: n}, "", nil)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			s.writeAdmissionError(w, err)
		default:
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		}
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		// Client went away: release the job's slot promptly.
		s.Cancel(j.ID, r.Context().Err())
		return
	}
	d := j.result()
	if d.State != StateDone {
		code := http.StatusInternalServerError
		if d.State == StateCancelled {
			code = http.StatusGatewayTimeout
		}
		writeError(w, code, d.ErrorKind, "table %d: %s", n, d.Error)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(d.Report) //nolint:errcheck
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"draining":    s.Draining(),
		"queue_depth": s.QueueDepth(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
