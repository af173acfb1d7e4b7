package server

import (
	"log/slog"
	"net/http"
	"time"
)

// HTTP-layer observability: one middleware around the API mux that feeds
// the per-endpoint latency histograms ("http:<METHOD> <route>") and emits
// structured access records. Everything is nil-safe — with no logger and
// a shared no-op recorder the wrapper's cost is a time.Now pair — and the
// response writer wrapper implements Unwrap so http.ResponseController
// (Flush in the progress stream, SetReadDeadline in submit) keeps
// reaching the real connection.

// statusWriter captures the status code and byte count of one response.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flusher / deadline controls through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeLabel is the request's route for the per-endpoint histograms and
// access records: the mux pattern that matches it, when that pattern is
// one of the registered routes, and "other" for everything else — an
// unknown path or method, or a mux redirect. The label set is the route
// table plus one, so no client can mint new histograms or /metrics series.
func routeLabel(mux *http.ServeMux, routes map[string]bool, r *http.Request) string {
	if _, pattern := mux.Handler(r); routes[pattern] {
		return pattern
	}
	return "other"
}

// withObs wraps the API mux with per-endpoint latency recording and
// structured access logging; routes is the mux's registered pattern set.
func (s *Server) withObs(mux *http.ServeMux, routes map[string]bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		dur := time.Since(start)
		label := routeLabel(mux, routes, r)
		s.rec.ObserveDur("http:"+label, dur)
		if s.logger != nil {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			// Access records are the hottest log event; sample per route so
			// an overloaded endpoint cannot flood the log.
			s.logger.Sampled("access:"+label, slog.LevelInfo, "http_access",
				"method", r.Method, "path", r.URL.Path, "route", label,
				"status", status, "bytes", sw.bytes, "dur_ms", dur.Milliseconds(),
				"remote", r.RemoteAddr, "traceparent", r.Header.Get("traceparent"))
		}
	})
}
