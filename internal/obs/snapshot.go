package obs

import (
	"strings"
	"time"
)

// A Snapshot is one read of a recorder's state, as a plain value: elapsed
// time, every counter, every histogram, the recorded spans, and the
// failure and trace identity. It is the single source every exporter
// renders — RunStats (-stats, /statsz, a job's stats), the Prometheus
// exposition, the debug /progress document, a job's status counters, the
// trace tree and the -progress line — so all of them agree on one run's
// numbers by construction.
type Snapshot struct {
	// Elapsed is the time from the recorder's creation to the snapshot.
	Elapsed time.Duration
	// Counters holds every counter's value, indexed by Counter.
	Counters [numCounters]int64
	// Histograms holds every named histogram ("stage:<name>",
	// "http:<route>", "job").
	Histograms map[string]HistogramSnapshot
	// Spans lists the individually recorded spans in completion order;
	// SpansDropped counts the spans the recording caps elided.
	Spans        []SpanStats
	SpansDropped int64
	// Failures summarizes what went wrong, if anything.
	Failures FailureSummary
	// TraceID is the W3C trace id ("" when none was set or generated);
	// RemoteParentSpanID is the ingress traceparent's span id, if any.
	TraceID            string
	RemoteParentSpanID string
}

// Snapshot reads the recorder's current state. A nil recorder yields the
// zero snapshot (all counters zero, no corrupt byte).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{Failures: FailureSummary{CorruptAtByte: -1}}
	if r == nil {
		return s
	}
	s.Elapsed = time.Since(r.start)
	for c := range s.Counters {
		s.Counters[c] = r.counters[c].Load()
	}
	s.Histograms = map[string]HistogramSnapshot{}
	r.hists.Range(func(k, v any) bool {
		s.Histograms[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	r.mu.Lock()
	s.Spans = append([]SpanStats(nil), r.spans...)
	s.SpansDropped = r.spansDropped
	s.Failures.First = r.firstFailure
	s.Failures.CorruptAtByte = r.corruptByte
	s.TraceID = r.traceID
	s.RemoteParentSpanID = r.remoteParent
	r.mu.Unlock()
	s.Failures.RegionsFailed = s.Counters[RegionsFailed]
	return s
}

// CounterMap returns every counter by its snake_case export name, zeros
// included — the counters of RunStats, /progress and a job's status.
func (s Snapshot) CounterMap() map[string]int64 {
	m := make(map[string]int64, numCounters)
	for c, v := range s.Counters {
		m[Counter(c).Name()] = v
	}
	return m
}

// SpanTotals aggregates every span and timer by stage name. A stage
// histogram holds the exact count, sum and max of its observations, so
// the totals are read off the "stage:<name>" histograms.
func (s Snapshot) SpanTotals() map[string]SpanAgg {
	totals := map[string]SpanAgg{}
	for key, h := range s.Histograms {
		if name, ok := strings.CutPrefix(key, stagePrefix); ok {
			totals[name] = SpanAgg{Count: h.Count, TotalNs: h.SumNs, MaxNs: h.MaxNs}
		}
	}
	return totals
}

// progressDoc is the debug listener's /progress document.
type progressDoc struct {
	ElapsedNs  int64              `json:"elapsed_ns"`
	Counters   map[string]int64   `json:"counters"`
	SpanTotals map[string]SpanAgg `json:"span_totals"`
}

// progressDoc renders the snapshot as the /progress document.
func (s Snapshot) progressDoc() progressDoc {
	return progressDoc{ElapsedNs: s.Elapsed.Nanoseconds(), Counters: s.CounterMap(), SpanTotals: s.SpanTotals()}
}
