package core_test

// Benchmarks for the stream kernel's sweep against the per-candidate graph
// reference, across candidate counts, and for its stride stage against the
// paper-literal scans. The generated programs pin the
// candidate count exactly: array initialization stores constants (no FP
// arithmetic), so only the measured loops contribute candidate
// instructions.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// benchProgram builds a MiniC program whose trace holds exactly `candidates`
// static FP candidate instructions, each executed ~n times. Statements carry
// two FP ops each (a fused multiply-add shape) except a final single-op
// statement when the count is odd.
func benchProgram(candidates, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "double A[%d]; double B[%d]; double D[%d];\n\nvoid main() {\n  int i;\n", n, n, n)
	fmt.Fprintf(&b, "  for (i = 0; i < %d; i++) { A[i] = 1.5; B[i] = 2.5; D[i] = 0.5; }\n", n)
	remaining := candidates
	s := 0
	for remaining > 0 {
		fmt.Fprintf(&b, "  for (i = 1; i < %d; i++) {\n", n)
		if remaining >= 2 {
			// mul + add: two candidates.
			fmt.Fprintf(&b, "    D[i] = A[i] * %d.125 + B[i - 1];\n", s+1)
			remaining -= 2
		} else {
			fmt.Fprintf(&b, "    D[i] = A[i] * %d.125;\n", s+1)
			remaining--
		}
		b.WriteString("  }\n")
		s++
	}
	b.WriteString("  print(D[2]);\n}\n")
	return b.String()
}

// benchTrace compiles and traces a pinned-candidate-count program and
// builds its graph, failing the benchmark if the pin drifted.
func benchTrace(b *testing.B, candidates, n int) (*trace.Trace, *ddg.Graph) {
	b.Helper()
	_, _, tr, err := pipeline.CompileAndTrace("bench.c", benchProgram(candidates, n))
	if err != nil {
		b.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	if got := len(g.CandidateInstances()); got != candidates {
		b.Fatalf("program has %d candidates, want %d", got, candidates)
	}
	return tr, g
}

// benchCandidateCounts are the sweep widths: a single candidate, a small
// statement group, and a wide loop body.
var benchCandidateCounts = []int{1, 8, 64}

// BenchmarkStreamSweep measures the stream kernel over the whole trace:
// one pass, every candidate column at once.
func BenchmarkStreamSweep(b *testing.B) {
	for _, c := range benchCandidateCounts {
		b.Run(fmt.Sprintf("candidates=%d", c), func(b *testing.B) {
			tr, _ := benchTrace(b, c, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, core.Options{Workers: 1}, nil)
				for _, ev := range tr.Events {
					if err := k.Feed(ev.ID, ev.Addr); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := k.Finish(context.Background()); err != nil {
					b.Fatal(err)
				}
				k.Release()
			}
		})
	}
}

// BenchmarkPerCandidateSweep measures the same analysis through the graph
// reference, one Algorithm-1 pass per candidate over a prebuilt graph.
func BenchmarkPerCandidateSweep(b *testing.B) {
	for _, c := range benchCandidateCounts {
		b.Run(fmt.Sprintf("candidates=%d", c), func(b *testing.B) {
			_, g := benchTrace(b, c, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Analyze(g, core.Options{Workers: 1})
			}
		})
	}
}

// stridePartition builds one partition of n instances whose keys are
// gather-like (a permutation of a strided index set, so §3.2 leaves
// singletons and §3.3 takes many passes) or unit-stride in trace order.
func stridePartition(n int, gather bool) ([][3]int64, []core.Partition) {
	r := rand.New(rand.NewSource(int64(n)))
	keys := make([][3]int64, n)
	nodes := make([]int32, n)
	for i := range keys {
		nodes[i] = int32(i)
		if gather {
			j := int64(r.Intn(n))
			keys[i] = [3]int64{0x10000 + 8*int64(i), 0x40000 + 24*j, 0x80000 + 40*(j%17)}
		} else {
			keys[i] = [3]int64{0x10000 + 8*int64(i), 0x40000 + 8*int64(i), 0}
		}
	}
	if gather {
		r.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	}
	return keys, []core.Partition{{Timestamp: 1, Nodes: nodes}}
}

// strideSink keeps the benchmarked stride stage's result live.
var strideSink core.StrideStats

// BenchmarkStrideStats compares the kernel's stride stage with the literal
// scans on one gather-like and one unit-stride partition.
func BenchmarkStrideStats(b *testing.B) {
	for _, shape := range []struct {
		name   string
		gather bool
	}{{"gather", true}, {"unit", false}} {
		keys, parts := stridePartition(4096, shape.gather)
		for _, impl := range []string{"kernel", "literal"} {
			b.Run(shape.name+"/"+impl, func(b *testing.B) {
				var st core.StrideStage
				run := st.Kernel
				if impl == "literal" {
					run = st.Literal
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					strideSink, _ = run(keys, parts, 8)
				}
			})
		}
	}
}
