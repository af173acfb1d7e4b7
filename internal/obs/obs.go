// Package obs is the analysis pipeline's observability layer: a
// low-overhead recorder of counters, gauges, and stage spans that every
// pipeline layer feeds, plus the exporters that make the recorded run
// visible — a versioned RunStats JSON document, Prometheus text, a
// throttled live progress printer, trace trees, and a localhost debug
// listener serving /metrics, /progress, and the standard pprof endpoints.
// Every exporter is a pure function of one Snapshot of the recorder.
//
// The design contract is that observability is free when off and cheap
// when on:
//
//   - A nil *Recorder is valid everywhere. Every method nil-checks its
//     receiver first, so an unobserved pipeline pays one predictable
//     branch per hook — no allocation, no atomic, no map lookup. The
//     pipeline's differential tests prove output is byte-identical with
//     the recorder on and off, and the overhead benchmark bounds the
//     nil-recorder cost of the hooks.
//   - Hot loops never consult the recorder per element. The interpreter
//     reports at its existing 16384-step cancellation poll, the region
//     feed at its 4096-event poll, and the analysis kernel at tile
//     granularity; everything finer is accumulated locally first.
//   - Counters are fixed-index atomics (no map, no lock on the hot path);
//     only span recording takes a mutex, and spans are stage-granular.
//
// The Recorder travels on the context.Context that PR 4 threaded through
// the pipeline: obs.WithRecorder attaches it, obs.FromContext recovers it
// (nil when absent), so no analysis API changed shape for observability.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one of the recorder's fixed atomic counters. The set
// covers the pipeline end to end: ingestion (bytes, events), region
// lifecycle, graph construction, the analysis sweep, pool behaviour, and
// budget consumption.
type Counter int

const (
	// TraceBytesRead counts compressed VTR1 bytes consumed from the input
	// stream (fed by a CountingReader wrapped around the trace file).
	TraceBytesRead Counter = iota
	// TraceBytesTotal is the input size when known (a gauge set once);
	// the progress printer derives percent-done and ETA from it.
	TraceBytesTotal
	// TraceBlocksRead counts VTR2 container blocks fetched (frame read and
	// checksum-verified), whether served from disk or a scan worker's
	// single-block cache miss. The index-seek guarantee is observable here:
	// analyzing one region of an N-block trace reads only the blocks its
	// indexed byte range covers, not all N.
	TraceBlocksRead
	// TraceBlocksDecompressed counts the subset of fetched blocks whose
	// payload was actually stored compressed and had to be inflated (raw
	// stored blocks are read without a decompression pass).
	TraceBlocksDecompressed
	// RegionIndexHits counts region lookups answered by a VTR2 footer index
	// — region requests that seeked straight to their block range instead of
	// decoding the stream prefix.
	RegionIndexHits
	// EventsScanned counts trace events consumed by the region feed.
	EventsScanned
	// RegionsScanned counts dynamic regions the region feed closed.
	RegionsScanned
	// RegionsStarted / RegionsCompleted / RegionsFailed track the analysis
	// lifecycle of regions in both the in-memory and streaming paths.
	RegionsStarted
	RegionsCompleted
	RegionsFailed
	// DDGNodes / DDGEdges count dynamic instances and dependence edges of
	// every graph handed to the analysis.
	DDGNodes
	DDGEdges
	// CandidatesAnalyzed counts candidate static instructions swept.
	CandidatesAnalyzed
	// TilesDispatched counts stream-kernel sweeps: one per analyzed region
	// (the name predates the stream kernel and is kept for the outputs).
	TilesDispatched
	// PartitionsEmitted counts parallel partitions across all candidates.
	PartitionsEmitted
	// UnitVecOps / NonUnitVecOps count operations classified into
	// non-singleton unit-stride / non-unit-stride subpartitions.
	UnitVecOps
	NonUnitVecOps
	// ScratchPoolHits / ScratchPoolMisses track reuse of the pooled
	// per-worker analysis buffers (a miss is a fresh allocation).
	ScratchPoolHits
	ScratchPoolMisses
	// ScanPeakRetainedEvents is the high-water mark of region events held
	// for region workers (a max gauge): chunks queued or being fed on the
	// streaming path, whole regions while a buffered region is analyzed.
	// On the streaming path it is the bounded-memory guarantee, observed.
	ScanPeakRetainedEvents
	// ResidentRegions / PeakResidentRegions gauge materialized regions in
	// flight in the streaming path (current value and high-water mark).
	ResidentRegions
	PeakResidentRegions
	// InterpSteps / InterpStackBytes are max gauges reported at the
	// interpreter's cancellation poll: executed instructions and stack
	// arena in use.
	InterpSteps
	InterpStackBytes
	// BudgetMaxSteps / BudgetMaxAnalysisBytes record the configured
	// core.Budget limits (0 = unlimited), so exported stats show headroom
	// next to consumption (InterpSteps vs MaxSteps, AnalysisFootprintBytes
	// vs MaxAnalysisBytes).
	BudgetMaxSteps
	BudgetMaxAnalysisBytes
	// AnalysisFootprintBytes is a max gauge of the estimated analysis
	// working set (timestamp matrices + result rows) per region.
	AnalysisFootprintBytes
	// ShadowPeakLiveAddresses is a max gauge of the one-pass stream
	// kernel's shadow-memory table: the largest number of distinct live
	// addresses any single region held at once. Together with the tile
	// width it is the kernel's memory model — O(live addresses × tile
	// width) — observed.
	ShadowPeakLiveAddresses
	// StreamPoolHits / StreamPoolMisses track reuse of the pooled one-pass
	// stream kernels (last-writer tables, shadow maps, per-candidate
	// instance arrays and stride scratch). A miss is a fresh allocation; a
	// hit means a region was analyzed entirely in recycled memory.
	StreamPoolHits
	StreamPoolMisses
	// HeapAllocPeakBytes / HeapSysPeakBytes are max gauges of the Go
	// runtime's HeapAlloc / HeapSys, sampled by the diag layer while a run
	// is observed — the whole-process memory high-water marks that land in
	// the perf trajectory next to the analytical footprint gauges.
	HeapAllocPeakBytes
	HeapSysPeakBytes
	// InterpBatchedEvents counts trace events delivered through the
	// interpreter's batched tracer path (BatchTracer.ExecBatch) — i.e. at
	// one interface call per chunk instead of one per instruction. Zero
	// when the run used a per-event sink or the oracle dispatch loop.
	InterpBatchedEvents
	// ShadowPagesTouched counts shadow-memory pages the one-pass stream
	// kernel hooked into its page directory across all regions. Zero when
	// the legacy map shadow was selected. Together with
	// ShadowPeakLiveAddresses it bounds the paged shadow's real footprint:
	// pages × page span ≥ live addresses.
	ShadowPagesTouched
	// JobsAdmitted / JobsRejected count vectraced admission decisions: a
	// submission that won a queue slot versus one turned away with 429 +
	// Retry-After because the bounded queue was full. Their sum is the
	// service's total submission traffic; the rejected count is the
	// overload-degradation story, observed (load is shed, not absorbed).
	JobsAdmitted
	JobsRejected
	// JobsCompleted / JobsFailed / JobsCancelled track the terminal states
	// of admitted jobs: finished with a report, finished with an error
	// (budget exhaustion, corrupt upload, isolated panic), or cancelled by
	// the client / a deadline before finishing. Admitted jobs always reach
	// exactly one of the three, so admitted == completed+failed+cancelled
	// once the queue drains — the balance the drain test pins.
	JobsCompleted
	JobsFailed
	JobsCancelled
	// CacheHits / CacheMisses track the content-addressed result cache
	// (trace/source hash × analysis config → report JSON). A hit serves the
	// stored bytes without running the pipeline; a miss is the single
	// flight that computes them (duplicate concurrent requests coalesce
	// onto one miss).
	CacheHits
	CacheMisses
	// QueueDepth / QueueDepthPeak gauge jobs holding queue slots (queued or
	// running) and the high-water mark — the observable form of the
	// "memory bounded by Q × per-job budget" guarantee.
	QueueDepth
	QueueDepthPeak

	numCounters
)

// counterNames maps Counter indices to the snake_case keys used in
// RunStats JSON, /metrics, and /progress output. Order must match the
// Counter constants above; the obs tests cross-check the two.
var counterNames = [numCounters]string{
	"trace_bytes_read",
	"trace_bytes_total",
	"trace_blocks_read",
	"trace_blocks_decompressed",
	"region_index_hits",
	"events_scanned",
	"regions_scanned",
	"regions_started",
	"regions_completed",
	"regions_failed",
	"ddg_nodes",
	"ddg_edges",
	"candidates_analyzed",
	"tiles_dispatched",
	"partitions_emitted",
	"unit_vec_ops",
	"nonunit_vec_ops",
	"scratch_pool_hits",
	"scratch_pool_misses",
	"scan_peak_retained_events",
	"resident_regions",
	"peak_resident_regions",
	"interp_steps",
	"interp_stack_bytes",
	"budget_max_steps",
	"budget_max_analysis_bytes",
	"analysis_footprint_bytes",
	"shadow_peak_live_addresses",
	"stream_pool_hits",
	"stream_pool_misses",
	"heap_alloc_peak_bytes",
	"heap_sys_peak_bytes",
	"interp_batched_events",
	"shadow_pages_touched",
	"jobs_admitted",
	"jobs_rejected",
	"jobs_completed",
	"jobs_failed",
	"jobs_cancelled",
	"cache_hits",
	"cache_misses",
	"queue_depth",
	"queue_depth_peak",
}

// Name returns the counter's stable snake_case export key.
func (c Counter) Name() string { return counterNames[c] }

// maxRecordedSpans bounds the individually recorded span list; beyond it
// (and beyond maxSpansPerName for any one stage) spans still feed their
// stage histogram but are not materialized, so a million-region run
// exports a bounded document. Dropped spans are counted, never silent.
const (
	maxRecordedSpans = 4096
	maxSpansPerName  = 64
)

// A Recorder accumulates one run's metrics and spans. All counter methods
// are safe for concurrent use and safe on a nil receiver (the "observability
// off" state): the nil check is the entire cost of an unobserved hook.
type Recorder struct {
	start    time.Time
	counters [numCounters]atomic.Int64

	// spanSeq allocates trace span ids (see trace.go); hists holds the
	// named latency histograms (see histogram.go). Both are lock-free.
	spanSeq atomic.Uint64
	hists   sync.Map // string -> *Histogram

	mu           sync.Mutex
	spans        []SpanStats
	spansDropped int64
	firstFailure string
	corruptByte  int64
	traceID      string // W3C trace id; set on ingress or first EnsureTraceID
	remoteParent string // ingress traceparent's span id, if the job joined a trace
}

// New returns an empty Recorder with its clock started.
func New() *Recorder {
	return &Recorder{start: time.Now(), corruptByte: -1}
}

// Add increments counter c by n. No-op on a nil recorder.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Set stores v into counter c unconditionally (for configuration values
// and totals known once). No-op on a nil recorder.
func (r *Recorder) Set(c Counter, v int64) {
	if r == nil {
		return
	}
	r.counters[c].Store(v)
}

// Max raises counter c to v if v is larger — the max-gauge update used for
// high-water marks. No-op on a nil recorder.
func (r *Recorder) Max(c Counter, v int64) {
	if r == nil {
		return
	}
	for {
		cur := r.counters[c].Load()
		if v <= cur || r.counters[c].CompareAndSwap(cur, v) {
			return
		}
	}
}

// GaugeInc increments the current-value gauge cur and raises its paired
// high-water mark peak. No-op on a nil recorder.
func (r *Recorder) GaugeInc(cur, peak Counter) {
	if r == nil {
		return
	}
	v := r.counters[cur].Add(1)
	r.Max(peak, v)
}

// GaugeDec decrements the current-value gauge cur. No-op on a nil recorder.
func (r *Recorder) GaugeDec(cur Counter) {
	if r == nil {
		return
	}
	r.counters[cur].Add(-1)
}

// Get returns counter c's current value (0 on a nil recorder). Get and
// Snapshot are the only readers of recorder state; every exporter renders
// a Snapshot.
func (r *Recorder) Get(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// RecordRegionFailure notes one failed region for the failure summary,
// keeping the first message. The RegionsFailed counter is maintained
// separately by the pipeline. No-op on a nil recorder.
func (r *Recorder) RecordRegionFailure(msg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.firstFailure == "" {
		r.firstFailure = msg
	}
	r.mu.Unlock()
}

// SetCorruptByte records the byte offset where the input trace turned out
// to be corrupt (from trace.ErrCorruptTrace diagnostics). No-op on nil.
func (r *Recorder) SetCorruptByte(off int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.corruptByte < 0 {
		r.corruptByte = off
	}
	r.mu.Unlock()
}

// ctxKey carries the recorder on a context; spanKey carries the identity
// (name + span id) of the innermost open span — the parent of the next
// StartSpan.
type ctxKey struct{}
type spanKey struct{}

// WithRecorder returns a context carrying r. Attaching a nil recorder
// returns ctx unchanged, so downstream FromContext stays nil and every
// hook keeps its single-branch fast path.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the recorder carried by ctx, or nil. Callers hold
// the result once per coarse operation (a run, a region, a sweep) — never
// per element — and rely on the nil-safe methods from there.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
