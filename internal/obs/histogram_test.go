package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHistBuckets pins the bucket scheme: powers of two in microseconds,
// bucket 0 up to 1µs, final bucket +Inf.
func TestHistBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{1000 * time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := histIndex(c.d.Nanoseconds()); got != c.want {
			t.Errorf("histIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if ub := HistBucketUpperNs(0); ub != 1000 {
		t.Errorf("bucket 0 upper = %d, want 1000", ub)
	}
	if ub := HistBucketUpperNs(histBuckets - 1); ub != -1 {
		t.Errorf("overflow bucket upper = %d, want -1", ub)
	}
	// Each observation must land within its bucket's bounds.
	for i := 0; i < histBuckets-1; i++ {
		ub := HistBucketUpperNs(i)
		if got := histIndex(ub); got != i {
			t.Errorf("upper bound of bucket %d indexes to %d", i, got)
		}
	}
}

// TestHistogramObserve covers the single-threaded contract: counts, sum,
// max, negative clamping, and nil safety.
func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(-time.Second) // clamps to 0, must not corrupt an index
	s := h.Snapshot()
	if s.Count != 3 {
		t.Errorf("count = %d, want 3", s.Count)
	}
	if want := int64(4 * time.Millisecond); s.SumNs != want {
		t.Errorf("sum = %d, want %d", s.SumNs, want)
	}
	if want := int64(3 * time.Millisecond); s.MaxNs != want {
		t.Errorf("max = %d, want %d", s.MaxNs, want)
	}
	if s.Buckets[0] != 1 {
		t.Errorf("clamped negative not in bucket 0: %v", s.Buckets)
	}
}

// TestHistogramQuantile: quantiles interpolate within the covering bucket,
// so estimates stay within the scheme's ≤2× relative error.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond) // all in the (512µs, 1024µs] bucket
	}
	h.Observe(100 * time.Millisecond)
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	if p50 < 512*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Errorf("p50 = %v, want within (512µs, 1024µs]", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 512*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Errorf("p99 = %v, want near 1ms", p99)
	}
	if got := s.Quantile(1.0); got > 100*time.Millisecond {
		t.Errorf("p100 = %v, must not exceed observed max", got)
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines with
// snapshot readers interleaved — the -race run proves Observe is safe from
// every worker and HTTP handler at once, and the final totals prove no
// observation was lost. (Mid-run snapshot consistency is
// TestHistogramSnapshotCountMatchesBuckets.)
func TestHistogramConcurrent(t *testing.T) {
	const writers, perWriter = 8, 2000
	var h Histogram
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Snapshot()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*perWriter+i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Errorf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var inBuckets int64
	for _, n := range s.Buckets {
		inBuckets += n
	}
	if inBuckets != s.Count {
		t.Errorf("bucket total %d != count %d after quiesce", inBuckets, s.Count)
	}
}

// TestHistogramSnapshotCountMatchesBuckets: a snapshot taken while other
// goroutines Observe must still satisfy Count == Σ Buckets. The Prometheus
// exposition prints Count as _count and Σ Buckets as the +Inf bucket, and
// scrapers reject a family where the two differ.
func TestHistogramSnapshotCountMatchesBuckets(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(w*1000+i%1000) * time.Microsecond)
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 20000; i++ {
		s := h.Snapshot()
		var inBuckets int64
		for _, n := range s.Buckets {
			inBuckets += n
		}
		if inBuckets != s.Count {
			t.Fatalf("snapshot %d: count %d != Σ buckets %d", i, s.Count, inBuckets)
		}
		if c := h.Count(); c < s.Count {
			t.Fatalf("Count() went backwards: %d after a snapshot of %d", c, s.Count)
		}
	}
}

// TestHistogramMerge: AddSnapshot folds snapshots into a live histogram
// exactly — the merged distribution is the union of the observations.
func TestHistogramMerge(t *testing.T) {
	var a, b, union Histogram
	for i := 0; i < 10; i++ {
		a.Observe(time.Millisecond)
		b.Observe(time.Second)
		union.Observe(time.Millisecond)
		union.Observe(time.Second)
	}
	var c Histogram
	c.AddSnapshot(a.Snapshot())
	c.AddSnapshot(b.Snapshot())
	c.AddSnapshot(HistogramSnapshot{Count: 5}) // no bucket scheme: adds nothing
	got, want := c.Snapshot(), union.Snapshot()
	if got.Count != 20 || got.MaxNs != int64(time.Second) {
		t.Errorf("merged = count %d max %d", got.Count, got.MaxNs)
	}
	if sum := int64(10*time.Millisecond + 10*time.Second); got.SumNs != sum {
		t.Errorf("merged sum = %d, want %d", got.SumNs, sum)
	}
	for i := range got.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Errorf("bucket %d: merged %d, union %d", i, got.Buckets[i], want.Buckets[i])
		}
	}
}

// TestRecorderHistograms covers the recorder-level API: named creation,
// AddHistograms from another recorder's snapshot, and the snapshot read.
func TestRecorderHistograms(t *testing.T) {
	job := New()
	job.ObserveDur("stage:parse", 2*time.Millisecond)
	job.ObserveDur("stage:parse", 4*time.Millisecond)
	job.ObserveDur("job", 10*time.Millisecond)

	svc := New()
	svc.ObserveDur("stage:parse", time.Millisecond)
	svc.AddHistograms(job.Snapshot().Histograms)
	hs := svc.Snapshot().Histograms
	if s, ok := hs["stage:parse"]; !ok || s.Count != 3 {
		t.Errorf("merged stage:parse = %+v ok=%v, want count 3", s, ok)
	}
	if s, ok := hs["job"]; !ok || s.Count != 1 {
		t.Errorf("merged job histogram = %+v ok=%v, want count 1", s, ok)
	}
	if _, ok := hs["absent"]; ok {
		t.Error("Snapshot invented a histogram")
	}
}
