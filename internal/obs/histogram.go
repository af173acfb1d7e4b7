package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency histograms. The service needs distributions, not just totals:
// a mean hides the tail, and the tail is where overload and slow tenants
// live. The design constraints match the rest of the recorder —
//
//   - Observe is lock-free: one atomic add into a fixed log-spaced bucket
//     plus sum/max updates, safe for concurrent use from every worker and
//     HTTP handler at once. No allocation after creation.
//   - The count is the bucket total, not a separate counter, so every
//     snapshot satisfies Count == Σ Buckets (the +Inf cumulative bucket)
//     however it interleaves with concurrent Observe calls.
//   - Nil is the off state: a nil *Histogram ignores Observe, so callers
//     thread histograms unconditionally (the recorder hands out nil ones
//     when observability is off).
//   - Snapshots are mergeable: a snapshot adds bucket-wise into a live
//     histogram of the same scheme (AddSnapshot), so per-job histograms
//     fold into the service-wide ones without losing the distribution.
//
// Buckets are powers of two in microseconds: bucket 0 holds observations
// up to 1µs, bucket i holds (2^(i-1)µs, 2^i µs], and the final bucket is
// the +Inf overflow. 40 buckets span 1µs to ~76h, which covers everything
// from a single tile sweep to a stuck job, with ≤2× relative error —
// plenty for p50/p95/p99 service dashboards.

// histBuckets is the fixed bucket count (last bucket = +Inf overflow).
const histBuckets = 40

// HistBucketUpperNs returns bucket i's inclusive upper bound in
// nanoseconds, or -1 for the +Inf overflow bucket.
func HistBucketUpperNs(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return 1000 << uint(i)
}

// histIndex maps a duration in nanoseconds to its bucket.
func histIndex(ns int64) int {
	if ns <= 1000 {
		return 0
	}
	// Smallest i with ns <= 1000<<i: bit length of ceil(ns/1000)-1.
	q := uint64((ns + 999) / 1000)
	i := bits.Len64(q - 1)
	if i >= histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// A Histogram is a fixed-bucket, log-spaced latency histogram safe for
// concurrent Observe. The nil Histogram is inert.
type Histogram struct {
	sumNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero (a
// backwards clock must not corrupt a bucket index). No-op on nil.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[histIndex(ns)].Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Snapshot returns a copy for export. Buckets are read individually, so a
// snapshot taken mid-Observe may miss the events in flight, but Count is
// the sum of the buckets it read: the exposition's count and +Inf bucket
// always agree.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.SumNs = h.sumNs.Load()
	s.MaxNs = h.maxNs.Load()
	s.Buckets = make([]int64, histBuckets)
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// AddSnapshot folds a snapshot's observations into the live histogram —
// the merge direction the server uses to aggregate each finished job's
// per-stage histograms into the service-wide ones. The observations are
// the snapshot's buckets; a snapshot without the bucket scheme adds
// nothing. No-op on nil.
func (h *Histogram) AddSnapshot(s HistogramSnapshot) {
	if h == nil || len(s.Buckets) != histBuckets {
		return
	}
	for i, n := range s.Buckets {
		if n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sumNs.Add(s.SumNs)
	for {
		cur := h.maxNs.Load()
		if s.MaxNs <= cur || h.maxNs.CompareAndSwap(cur, s.MaxNs) {
			return
		}
	}
}

// A HistogramSnapshot is one exported histogram state.
type HistogramSnapshot struct {
	Count   int64
	SumNs   int64
	MaxNs   int64
	Buckets []int64 // len histBuckets; may be nil for the zero snapshot
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the covering bucket. The overflow bucket
// interpolates toward the observed maximum. Returns 0 for an empty
// snapshot.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := int64(0)
			if i > 0 {
				lo = HistBucketUpperNs(i - 1)
			}
			hi := HistBucketUpperNs(i)
			if hi < 0 || hi > s.MaxNs {
				hi = s.MaxNs // overflow bucket, or max observed below the bound
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(n)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum = next
	}
	return time.Duration(s.MaxNs)
}

// Recorder integration: named histograms live beside the counters, keyed
// by a "family:label" convention — "stage:parse" for pipeline stages,
// "http:POST /v1/jobs" for HTTP endpoints — which the Prometheus
// exposition maps to one metric family per prefix.

// Hist returns the named histogram, creating it on first use. Returns nil
// on a nil recorder, and nil Histograms ignore Observe, so the call chain
// r.Hist(name).Observe(d) is always safe.
func (r *Recorder) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists.Load(name); ok {
		return h.(*Histogram)
	}
	h, _ := r.hists.LoadOrStore(name, &Histogram{})
	return h.(*Histogram)
}

// ObserveDur records d into the named histogram. No-op on nil.
func (r *Recorder) ObserveDur(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.Hist(name).Observe(d)
}

// AddHistograms folds each snapshot into r's histogram of the same name —
// how the server aggregates a finished job's histograms (one Snapshot of
// the job's recorder) into the service-wide ones. No-op on nil.
func (r *Recorder) AddHistograms(hs map[string]HistogramSnapshot) {
	if r == nil {
		return
	}
	for name, h := range hs {
		r.Hist(name).AddSnapshot(h)
	}
}
