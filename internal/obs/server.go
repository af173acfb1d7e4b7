package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"
)

// The debug listener: `-debug-addr host:port` serves live run state over
// HTTP while an analysis is in flight.
//
//	/metrics        Prometheus text exposition (counters, gauges, latency
//	                histograms) — scrapeable by a stock Prometheus
//	/debug/flight   recent lifecycle events from the flight recorder
//	/progress       JSON snapshot: elapsed, counters, span totals
//	/debug/pprof/*  the standard runtime profiler endpoints
//
// Every endpoint sets an explicit Content-Type, and every recorder-backed
// endpoint renders one Snapshot per request. The listener binds whatever
// address the flag names (conventionally a localhost port; an empty port
// picks a free one) and shuts down with the run.

// MetricsHandler serves the recorder's Prometheus text exposition — shared
// by the CLI debug listener and vectraced's API mux.
func MetricsHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		WritePrometheus(w, rec.Snapshot())
	})
}

// FlightHandler serves the flight recorder's JSON dump. A nil recorder
// serves the empty dump, so the endpoint shape is stable whether or not
// the ring was enabled.
func FlightHandler(f *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		f.WriteJSON(w)
	})
}

// A Server is a running debug listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// StartServer binds addr and begins serving the debug endpoints for rec
// (and flight's event ring, which may be nil). It returns after the
// listener is bound (so Addr is immediately valid); serving continues on
// a background goroutine until Stop.
func StartServer(addr string, rec *Recorder, flight *FlightRecorder) (*Server, error) {
	if rec == nil {
		return nil, fmt.Errorf("obs: debug server needs a recorder")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(rec))
	mux.Handle("/debug/flight", FlightHandler(flight))
	mux.HandleFunc("/progress", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rec.Snapshot().progressDoc())
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)

	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns ErrServerClosed on Stop
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with a ":0" port).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stop closes the listener and waits for the serve loop to exit. Safe on
// nil; open requests are dropped (this is a debug port, not an API).
func (s *Server) Stop() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}
