package pipeline_test

// Streaming-vs-in-memory equivalence: Analyze over a decoded VTR1 stream
// must produce byte-identical reports to Analyze over the resident slice,
// for arbitrary generated programs, every loop, and every worker count —
// and both must match the per-region graph reference.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// encodeTrace serializes a live trace to VTR1 bytes.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamingMatchesInMemoryRandomPrograms(t *testing.T) {
	const programs = 12
	workerCounts := []int{1, 3, 8}
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generateProgram(seed)
			mod, _, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("s%d.c", seed), src)
			if err != nil {
				t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
			}
			encoded := encodeTrace(t, tr)
			for _, lm := range mod.Loops {
				reference := referenceRegions(t, tr, lm.Line, ddg.Options{}, core.Options{})
				for _, w := range workerCounts {
					copts := core.Options{Workers: w}
					want, wantErr := analyzeAll(context.Background(), sliceSource(tr), lm.Line, copts)
					if wantErr == nil && !reflect.DeepEqual(want, reference) {
						t.Fatalf("loop line %d workers %d: region reports differ from the graph reference",
							lm.Line, w)
					}
					dec := trace.NewDecoder(bytes.NewReader(encoded))
					got, gotErr := analyzeAll(context.Background(), pipeline.Source{Module: mod, Events: dec}, lm.Line, copts)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("loop line %d workers %d: in-memory err %v, streaming err %v",
							lm.Line, w, wantErr, gotErr)
					}
					if wantErr != nil {
						if wantErr.Error() != gotErr.Error() {
							t.Fatalf("loop line %d: error text differs: %q vs %q",
								lm.Line, wantErr, gotErr)
						}
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("loop line %d workers %d: %d regions streamed, %d in memory",
							lm.Line, w, len(got), len(want))
					}
					for i := range want {
						if got[i].Index != want[i].Index || got[i].Events != want[i].Events {
							t.Fatalf("loop line %d region %d: header differs: %+v vs %+v",
								lm.Line, i, got[i], want[i])
						}
						if got[i].Report.String() != want[i].Report.String() {
							t.Fatalf("loop line %d region %d: rendered reports differ:\n%s\nvs\n%s",
								lm.Line, i, got[i].Report.String(), want[i].Report.String())
						}
						if !reflect.DeepEqual(got[i].Report, want[i].Report) {
							t.Fatalf("loop line %d region %d: report structures differ", lm.Line, i)
						}
					}
				}
			}
		})
	}
}

// TestLoopRegionStreamMatches: a single-region request over a decoded
// stream agrees with the same request over the resident slice, including
// the error text for out-of-range indices.
func TestLoopRegionStreamMatches(t *testing.T) {
	src := generateProgram(42)
	mod, _, tr, err := pipeline.CompileAndTrace("s.c", src)
	if err != nil {
		t.Fatal(err)
	}
	encoded := encodeTrace(t, tr)
	for _, lm := range mod.Loops {
		for idx := 0; idx < 4; idx++ {
			spec := pipeline.Spec{Line: lm.Line, Instances: []int{idx}}
			want, wantErr := pipeline.Analyze(context.Background(), sliceSource(tr), spec)
			dec := trace.NewDecoder(bytes.NewReader(encoded))
			got, gotErr := pipeline.Analyze(context.Background(), pipeline.Source{Module: mod, Events: dec}, spec)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("loop line %d idx %d: in-memory err %v, streaming err %v",
					lm.Line, idx, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("loop line %d idx %d: error text differs: %q vs %q",
						lm.Line, idx, wantErr, gotErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loop line %d idx %d: region reports differ", lm.Line, idx)
			}
		}
	}
}

// TestStreamingKernelParity runs the streaming path over a realistic kernel
// (nested loops, calls) and requires byte-identical rendered reports.
func TestStreamingKernelParity(t *testing.T) {
	src := `
double A[24];
double B[24];
double s;

double dot(int n) {
  int k;
  double acc;
  acc = 0.0;
  for (k = 1; k < n; k++) {
    acc = acc + A[k] * B[k-1];
  }
  return acc;
}

void main() {
  int i;
  int t;
  for (i = 0; i < 24; i++) {
    A[i] = 0.5 + 0.25 * i;
    B[i] = 1.5 - 0.125 * i;
  }
  for (t = 0; t < 6; t++) {
    s = s + dot(24);
    for (i = 1; i < 24; i++) {
      B[i] = B[i-1] * 0.5 + A[i];
    }
  }
  print(s);
}
`
	mod, _, tr, err := pipeline.CompileAndTrace("k.c", src)
	if err != nil {
		t.Fatal(err)
	}
	encoded := encodeTrace(t, tr)
	for _, lm := range mod.Loops {
		want, wantErr := analyzeAll(context.Background(), sliceSource(tr), lm.Line, core.Options{Workers: 4})
		dec := trace.NewDecoder(bytes.NewReader(encoded))
		got, gotErr := analyzeAll(context.Background(), pipeline.Source{Module: mod, Events: dec}, lm.Line, core.Options{Workers: 4})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("loop line %d: errors differ: %v vs %v", lm.Line, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("loop line %d: %d regions streamed, %d in memory", lm.Line, len(got), len(want))
		}
		for i := range want {
			if got[i].Report.String() != want[i].Report.String() {
				t.Fatalf("loop line %d region %d: reports differ", lm.Line, i)
			}
		}
	}
}
