package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopLateness runs the load client against a stub server whose
// first submission stalls: the jobs due meanwhile wait for the one
// submitting connection, so their latency — from the due time — carries the
// stall, while the generator's own lateness stays small.
func TestOpenLoopLateness(t *testing.T) {
	const stall = 60 * time.Millisecond
	var mu sync.Mutex
	posts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posts++
		n := posts
		mu.Unlock()
		if n == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id": "j%d"}`, n)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"regions": [], "failed": 0, "job": %q}`, r.PathValue("id"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	s := &service{}
	for i, due := range []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond} {
		s.jobs = append(s.jobs, job{due: due, body: []byte("x"), ct: "text/plain", step: i % 2})
	}
	outs := s.load(srv.URL, 0)
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("job %d: %v", i, o.err)
		}
		if !strings.Contains(string(o.report), fmt.Sprintf(`"j%d"`, i+1)) {
			t.Errorf("job %d got report %s", i, o.report)
		}
		if o.lag < 0 || o.lag > 20*time.Millisecond {
			t.Errorf("job %d: generator lateness %v; the wait for the connection is not the generator's", i, o.lag)
		}
	}
	// Job 1 was due 10ms in but could go out only after job 0's stalled
	// submission returned.
	if min := stall - 10*time.Millisecond; outs[1].latency < min {
		t.Errorf("job 1 latency %v does not include the %v it waited behind the stall", outs[1].latency, min)
	}
	if outs[0].latency < stall {
		t.Errorf("job 0 latency %v is shorter than its own %v submission", outs[0].latency, stall)
	}
	// Job 3 was due long after the stall cleared.
	if outs[3].latency > stall {
		t.Errorf("job 3 latency %v: a stall that ended before it was due leaked into it", outs[3].latency)
	}
}
