package report

// The table path samples a loop's regions without capturing its trace: a
// plain run counts the regions, and one live traced run feeds only the
// sampled ones (analyzeKernelLoop). representativeReport is the in-memory
// oracle it replaced — capture the whole trace, split it into regions,
// analyze the picked slices — kept here to pin the streamed sample to it.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// representativeReport analyzes the first, middle, and last dynamic
// executions of a loop in a captured trace and returns the median one by
// candidate-operation count.
func representativeReport(tr *trace.Trace, loopID int, opts core.Options) (*core.Report, error) {
	regions := tr.Regions(loopID)
	if len(regions) == 0 {
		return nil, fmt.Errorf("report: loop L%d never executed", loopID)
	}
	picks := []int{0}
	if len(regions) > 2 {
		picks = append(picks, len(regions)/2)
	}
	if len(regions) > 1 {
		picks = append(picks, len(regions)-1)
	}
	reps := make([]*core.Report, len(picks))
	for i, p := range picks {
		var err error
		reps[i], err = pipeline.AnalyzeRegion(context.Background(), tr.Slice(regions[p]), ddg.Options{}, opts)
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(reps, func(i, j int) bool {
		return reps[i].TotalCandidateOps < reps[j].TotalCandidateOps
	})
	return reps[len(reps)/2], nil
}

func TestRepresentativeReport(t *testing.T) {
	src := `
double g;
void main() {
  int t;
  int i;
  for (t = 0; t < 5; t++) {
    for (i = 0; i < 8; i++) {
      g = g + 1.0;
    }
  }
  for (i = 0; i < 0; i++) { g = g * 2.0; }  /* never iterates */
}
`
	_, _, tr, err := pipeline.CompileAndTrace("rep.c", src)
	if err != nil {
		t.Fatal(err)
	}
	// The inner loop runs five times; the representative is the median of
	// three sampled regions — all identical here, so any is fine.
	rep, err := representativeReport(tr, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCandidateOps != 8 {
		t.Errorf("representative region has %d candidate ops, want 8 (one inner execution)", rep.TotalCandidateOps)
	}

	// A loop absent from the trace has no representative.
	if _, err := representativeReport(tr, 99, core.Options{}); err == nil {
		t.Error("missing loop should error")
	}
}

// recursiveKernel's @walk loop re-enters itself through recursion: every
// walk(0) call opens four nested regions that close innermost first, so a
// region's close index differs from its entry ordinal, and each depth's
// region has a different size.
func recursiveKernel(calls int) kernels.Kernel {
	return kernels.Kernel{Name: "recursive", Source: fmt.Sprintf(`double a[64];
double s;
void walk(int d) {
  int i;
  for (i = 0; i < 4; i++) { /* @walk */
    a[d * 16 + i] = a[d * 16 + i] * 0.5 + s;
    s = s + a[d * 16 + i + 4];
    if (d < 3) {
      if (i == 1) { walk(d + 1); }
    }
  }
}
void main() {
  int t;
  for (t = 0; t < %d; t++) { /* @outer */
    walk(0);
  }
  print(s);
}
`, calls)}
}

// TestSampleMatchesInMemoryOracle: the table path's streamed sample equals
// the whole-trace oracle's, for a loop whose regions nest through recursion
// (the closes are reordered, so the live driver needs its second pass) and
// for a plain loop around it.
func TestSampleMatchesInMemoryOracle(t *testing.T) {
	for _, calls := range []int{1, 3, 5} {
		k := recursiveKernel(calls)
		_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, marker := range []string{"@walk", "@outer"} {
			line, err := k.FindLine(marker)
			if err != nil {
				t.Fatal(err)
			}
			lm := tr.Module.LoopByLine(line)
			regions := tr.Regions(lm.ID)
			if marker == "@walk" && (len(regions) != 4*calls || regions[0].Start < regions[1].Start) {
				t.Fatalf("calls=%d: %d @walk regions, want %d closing innermost first", calls, len(regions), 4*calls)
			}
			want, err := representativeReport(tr, lm.ID, core.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			got, err := analyzeKernelLoop(context.Background(), k, marker, core.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got.Report.String() != want.String() {
				t.Errorf("calls=%d %s: streamed sample differs from the in-memory oracle:\n got: %s\nwant: %s",
					calls, marker, fmtRep(got.Report), fmtRep(want))
			}
		}
	}
}

// longLoopKernel samples three regions of a loop whose event count scales
// with trips while its analysis state stays fixed: an integer repetition
// loop makes each region long, and the candidate instances and live
// addresses come from a fixed eight-element recurrence.
func longLoopKernel(trips int) kernels.Kernel {
	return kernels.Kernel{Name: "longloop", Source: fmt.Sprintf(`double a[8];
int junk;
void main() {
  int k; int r; int i;
  for (k = 0; k < 3; k++) { /* @hot */
    for (r = 0; r < %d; r++) { junk = junk + r; }
    for (i = 1; i < 8; i++) { a[i] = a[i-1] * 0.5 + 0.25; }
  }
}
`, trips)}
}

// TestTablePathAllocsSubLinear is the table path's memory-regression smoke
// (VECTRACE_MEM_SMOKE=1): growing the analyzed loop's trip count 8× must
// grow the row's total allocation far less than holding the extra events
// would (7 × events × 16 B). A table path that captures the trace again
// fails it, since the capture alone allocates at least that much.
func TestTablePathAllocsSubLinear(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	const trips = 2000
	k := longLoopKernel(trips)
	_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	events := tr.Len()
	tr = nil
	measure := func(trips int) uint64 {
		k := longLoopKernel(trips)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := analyzeKernelLoop(context.Background(), k, "@hot", core.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	measure(trips) // warm the kernel pools
	small, large := measure(trips), measure(8*trips)
	retained := uint64(7 * events * 16)
	t.Logf("%d events at 1×; total alloc %d B at 1×, %d B at 8× (+%d B; retaining the extra events is %d B)",
		events, small, large, large-small, retained)
	if large > small && large-small >= retained/8 {
		t.Fatalf("8× the trip count allocated %d B more, over 1/8 of the %d B that retaining its events takes: the table path holds events again",
			large-small, retained)
	}
}
