package pipeline_test

// BenchmarkStreamingAnalyze demonstrates the bounded-memory property of the
// streaming path: as the number of dynamic regions (and thus the trace
// length) grows with the region size fixed, the streaming path's peak live
// heap stays flat while the in-memory path's grows with the trace. Compare
// the peak-B/op column of Streaming vs InMemory across region counts.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// repeatedKernel returns a program executing the same inner loop (line 6)
// reps times: reps regions of identical size, trace length ∝ reps.
func repeatedKernel(reps int) string {
	return fmt.Sprintf(`
double a[256];
double b[256];
void main() {
  int t; int i;
  for (t = 0; t < %d; t++) {
    for (i = 1; i < 256; i++) { a[i] = a[i-1] * 0.5 + b[i] * 1.5; }
  }
}
`, reps)
}

const repeatedKernelLoopLine = 7

// peakLiveBytes runs f while sampling the live heap, returning the observed
// peak growth over the pre-run baseline. Sampling is coarse, but the
// in-memory/streaming gap it has to resolve is several-fold. The collector
// runs at GOGC=10 meanwhile, so the heap tracks live data: at the default
// 100 the pacer's headroom over whatever the caller keeps resident (a whole
// captured trace) would dominate a small working set.
func peakLiveBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	return peak - base
}

func benchTraceBytes(b *testing.B, reps int) []byte {
	b.Helper()
	mod, err := pipeline.Compile("bench.c", repeatedKernel(reps))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.Record(context.Background(), mod, &buf, core.Budget{}, trace.FormatVTR1, trace.ContainerOptions{}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkStreamingAnalyze(b *testing.B) {
	for _, reps := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("regions=%d", reps), func(b *testing.B) {
			mod, err := pipeline.Compile("bench.c", repeatedKernel(reps))
			if err != nil {
				b.Fatal(err)
			}
			encoded := benchTraceBytes(b, reps)
			b.SetBytes(int64(len(encoded)))
			b.ResetTimer()
			var peak uint64
			for i := 0; i < b.N; i++ {
				p := peakLiveBytes(func() {
					dec := trace.NewDecoder(bytes.NewReader(encoded))
					if _, err := analyzeAll(context.Background(), pipeline.Source{Module: mod, Events: dec}, repeatedKernelLoopLine, core.Options{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				})
				if p > peak {
					peak = p
				}
			}
			b.ReportMetric(float64(peak), "peak-B/op")
		})
	}
}

func BenchmarkInMemoryAnalyze(b *testing.B) {
	for _, reps := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("regions=%d", reps), func(b *testing.B) {
			mod, err := pipeline.Compile("bench.c", repeatedKernel(reps))
			if err != nil {
				b.Fatal(err)
			}
			encoded := benchTraceBytes(b, reps)
			b.SetBytes(int64(len(encoded)))
			b.ResetTimer()
			var peak uint64
			for i := 0; i < b.N; i++ {
				p := peakLiveBytes(func() {
					events, err := trace.Decode(bytes.NewReader(encoded))
					if err != nil {
						b.Fatal(err)
					}
					tr := &trace.Trace{Module: mod, Events: events}
					if _, err := analyzeAll(context.Background(), sliceSource(tr), repeatedKernelLoopLine, core.Options{Workers: 1}); err != nil {
						b.Fatal(err)
					}
				})
				if p > peak {
					peak = p
				}
			}
			b.ReportMetric(float64(peak), "peak-B/op")
		})
	}
}
