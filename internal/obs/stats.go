package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// RunStats is the versioned machine-readable summary of one analysis run:
// the document `-stats out.json` emits, vectraced serves at /statsz, and
// a finished job carries as its stats. Schema evolution rule: bump SchemaVersion on any
// incompatible change (renamed/removed keys); adding keys is compatible.
// ValidateRunStats is the golden-style key check CI runs against emitted
// documents.
type RunStats struct {
	// SchemaVersion identifies the document layout; see RunStatsVersion.
	SchemaVersion int `json:"schema_version"`
	// Tool names the producing command ("vectrace analyze", "vecbench").
	Tool string `json:"tool"`
	// Config echoes the run's effective knobs (workers, tile, line, ...)
	// so a stats document is self-describing.
	Config map[string]any `json:"config,omitempty"`
	// DurationNs is the run's wall time, recorder creation to export.
	DurationNs int64 `json:"duration_ns"`
	// Counters holds every counter by its snake_case name, zeros included
	// (a missing key means a schema mismatch, not a zero).
	Counters map[string]int64 `json:"counters"`
	// Spans lists individually recorded stage spans in completion order
	// (bounded; see SpansDropped).
	Spans []SpanStats `json:"spans"`
	// SpanTotals aggregates every span and timer by stage name, including
	// ones past the individual-span caps: the count, sum and max of the
	// matching "stage:<name>" histogram.
	SpanTotals map[string]SpanAgg `json:"span_totals"`
	// SpansDropped counts spans elided from Spans by the caps.
	SpansDropped int64 `json:"spans_dropped"`
	// Histograms holds every named latency histogram ("stage:<name>",
	// "http:<endpoint>", "job") with estimated p50/p95/p99, zero-length when
	// nothing was observed (a missing key means a schema mismatch).
	Histograms map[string]HistogramStats `json:"histograms"`
	// TraceID is the run's W3C trace id when one was set or generated
	// (vectraced jobs always carry one; CLI runs usually omit it).
	TraceID string `json:"trace_id,omitempty"`
	// Failures summarizes what went wrong, if anything.
	Failures FailureSummary `json:"failures"`
}

// RunStatsVersion is the current RunStats schema version. Version 2 added
// the one-pass memory telemetry to the required counter set: process heap
// peaks (heap_alloc_peak_bytes, heap_sys_peak_bytes, sampled by the CLI
// while the run is live) and the stream kernels' live-address high-water
// mark (shadow_peak_live_addresses). Version 3 added the hot-path engine
// telemetry: interp_steps joined the required set, alongside the new
// interp_batched_events (events delivered through the plan dispatcher's
// batched Tracer fan-out) and shadow_pages_touched (pages the paged shadow
// memory dirtied across regions; zero under the map-shadow oracle).
// Version 4 added the vectraced service telemetry to the required set:
// admission (jobs_admitted, jobs_rejected), job terminal states
// (jobs_completed, jobs_failed, jobs_cancelled), the content-addressed
// result cache (cache_hits, cache_misses), and the queue-depth high-water
// mark (queue_depth_peak). CLI runs export them as zeros. Version 5 added
// the required "histograms" key (per-stage and per-endpoint log-bucket
// latency distributions with p50/p95/p99 estimates), span ids and parent
// links on span entries (span_id / parent_span_id — the trace-tree form
// served at /v1/jobs/{id}/trace), and the optional trace_id.
const RunStatsVersion = 5

// SpanStats is one recorded stage span. StartNs is relative to the
// recorder's start, so spans order and nest without absolute clocks. ID
// and ParentID are the recorder-allocated span ids that link the spans
// into a trace tree (0 = none; Timer-fed aggregates never materialize
// ids).
type SpanStats struct {
	Name     string `json:"name"`
	ID       uint64 `json:"span_id,omitempty"`
	Parent   string `json:"parent,omitempty"`
	ParentID uint64 `json:"parent_span_id,omitempty"`
	StartNs  int64  `json:"start_ns"`
	DurNs    int64  `json:"dur_ns"`
}

// SpanAgg aggregates the spans and timers of one stage name.
type SpanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// HistogramStats is the exported form of one latency histogram: the raw
// bucket counts (log-spaced; see HistBucketUpperNs) plus the quantile
// estimates dashboards actually read.
type HistogramStats struct {
	Count   int64   `json:"count"`
	SumNs   int64   `json:"sum_ns"`
	MaxNs   int64   `json:"max_ns"`
	P50Ns   int64   `json:"p50_ns"`
	P95Ns   int64   `json:"p95_ns"`
	P99Ns   int64   `json:"p99_ns"`
	Buckets []int64 `json:"buckets"`
}

// Stats converts a snapshot to its exported form.
func (s HistogramSnapshot) Stats() HistogramStats {
	return HistogramStats{
		Count:   s.Count,
		SumNs:   s.SumNs,
		MaxNs:   s.MaxNs,
		P50Ns:   s.Quantile(0.50).Nanoseconds(),
		P95Ns:   s.Quantile(0.95).Nanoseconds(),
		P99Ns:   s.Quantile(0.99).Nanoseconds(),
		Buckets: s.Buckets,
	}
}

// FailureSummary condenses a run's failures: the per-region failure count,
// the first failure message, and the corrupt byte offset when the input
// trace itself was damaged (-1 otherwise).
type FailureSummary struct {
	RegionsFailed int64  `json:"regions_failed"`
	First         string `json:"first,omitempty"`
	CorruptAtByte int64  `json:"corrupt_at_byte"`
}

// RunStats renders the snapshot as a RunStats document. The zero snapshot
// (from a nil recorder) renders a valid empty document, so the export path
// needs no separate "was observability on" branch.
func (s Snapshot) RunStats(tool string, config map[string]any) *RunStats {
	rs := &RunStats{
		SchemaVersion: RunStatsVersion,
		Tool:          tool,
		Config:        config,
		DurationNs:    s.Elapsed.Nanoseconds(),
		Counters:      s.CounterMap(),
		Spans:         append([]SpanStats{}, s.Spans...),
		SpanTotals:    s.SpanTotals(),
		SpansDropped:  s.SpansDropped,
		Histograms:    make(map[string]HistogramStats, len(s.Histograms)),
		TraceID:       s.TraceID,
		Failures:      s.Failures,
	}
	for name, h := range s.Histograms {
		rs.Histograms[name] = h.Stats()
	}
	return rs
}

// WriteStats marshals rs (indented, trailing newline) to path.
func WriteStats(path string, rs *RunStats) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal stats: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: write stats: %w", err)
	}
	return nil
}

// requiredCounters are the keys every valid RunStats document must carry —
// the golden subset CI pins (new counters may be added freely; these may
// not disappear without a schema version bump).
var requiredCounters = []string{
	"events_scanned",
	"trace_blocks_read",
	"trace_blocks_decompressed",
	"region_index_hits",
	"regions_started",
	"regions_completed",
	"regions_failed",
	"ddg_nodes",
	"ddg_edges",
	"candidates_analyzed",
	"tiles_dispatched",
	"partitions_emitted",
	"shadow_peak_live_addresses",
	"heap_alloc_peak_bytes",
	"heap_sys_peak_bytes",
	"interp_steps",
	"interp_batched_events",
	"shadow_pages_touched",
	"jobs_admitted",
	"jobs_rejected",
	"jobs_completed",
	"jobs_failed",
	"jobs_cancelled",
	"cache_hits",
	"cache_misses",
	"queue_depth_peak",
}

// ValidateRunStats performs the golden-style schema check on a marshaled
// RunStats document: version match, required top-level keys, required
// counter keys, and well-formed span entries. It returns the first
// violation found.
func ValidateRunStats(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("obs: stats document is not JSON: %w", err)
	}
	for _, key := range []string{"schema_version", "tool", "duration_ns", "counters", "spans", "span_totals", "histograms", "failures"} {
		if _, ok := raw[key]; !ok {
			return fmt.Errorf("obs: stats document missing required key %q", key)
		}
	}
	var version int
	if err := json.Unmarshal(raw["schema_version"], &version); err != nil || version != RunStatsVersion {
		return fmt.Errorf("obs: schema_version %s, want %d", raw["schema_version"], RunStatsVersion)
	}
	var counters map[string]int64
	if err := json.Unmarshal(raw["counters"], &counters); err != nil {
		return fmt.Errorf("obs: counters malformed: %w", err)
	}
	missing := []string{}
	for _, name := range requiredCounters {
		if _, ok := counters[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("obs: counters missing required keys %v", missing)
	}
	var spans []SpanStats
	if err := json.Unmarshal(raw["spans"], &spans); err != nil {
		return fmt.Errorf("obs: spans malformed: %w", err)
	}
	for i, s := range spans {
		if s.Name == "" {
			return fmt.Errorf("obs: span %d has no name", i)
		}
		if s.DurNs < 0 || s.StartNs < 0 {
			return fmt.Errorf("obs: span %d (%s) has negative timing", i, s.Name)
		}
	}
	var hists map[string]HistogramStats
	if err := json.Unmarshal(raw["histograms"], &hists); err != nil {
		return fmt.Errorf("obs: histograms malformed: %w", err)
	}
	for name, h := range hists {
		if h.Count < 0 {
			return fmt.Errorf("obs: histogram %q has negative count", name)
		}
		if len(h.Buckets) != 0 && len(h.Buckets) != histBuckets {
			return fmt.Errorf("obs: histogram %q has %d buckets, want %d", name, len(h.Buckets), histBuckets)
		}
	}
	var failures FailureSummary
	if err := json.Unmarshal(raw["failures"], &failures); err != nil {
		return fmt.Errorf("obs: failures malformed: %w", err)
	}
	return nil
}
