package report

// Golden coverage for the VTR2 trace container: the tables' inputs must be
// indistinguishable whichever on-disk format the trace arrives in, and a
// `vectrace analyze -instance K` seek through the region index must analyze
// to the same report as a sequential scan. Two new golden files pin the
// file-backed results; the existing table1-3 goldens (computed from
// in-memory traces) are untouched and must stay byte-identical.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// formatKernels are the paper's listing kernels at table-suite sizes —
// small enough to record in a unit test, rich enough to exercise
// recurrences, reductions, and nested regions.
func formatKernels() []kernels.Kernel {
	return []kernels.Kernel{
		kernels.Listing1(12),
		kernels.Listing2(12),
		kernels.Listing3(10),
		kernels.Listing4(10),
	}
}

// fmtRep serializes the table-relevant report metrics at full precision
// (like fmtLA, minus the profile columns a bare trace file cannot carry).
func fmtRep(rep *core.Report) string {
	return fmt.Sprintf("ops=%d concur=%.6f unit=%.6f%%/%.6f nonunit=%.6f%%/%.6f",
		rep.TotalCandidateOps, rep.AvgConcurrency,
		rep.UnitVecOpsPct, rep.UnitAvgVecSize, rep.NonUnitVecOpsPct, rep.NonUnitAvgVecSize)
}

// TestGoldenTraceFormatParity records each listing kernel in both trace
// formats, rebuilds the in-memory trace from each file, and derives every
// executed loop's representative metrics — the values Tables 1–3 are built
// from. The two formats must agree byte-for-byte, and the result is pinned
// as a golden so format-level drift (not just cross-format skew) is caught.
func TestGoldenTraceFormatParity(t *testing.T) {
	var b strings.Builder
	for _, k := range formatKernels() {
		mod, err := pipeline.Compile(k.Name+".c", k.Source)
		if err != nil {
			t.Fatal(err)
		}
		var f1, f2 bytes.Buffer
		if _, err := pipeline.Record(context.Background(), mod, &f1, core.Budget{}, trace.FormatVTR1, trace.ContainerOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := pipeline.Record(context.Background(), mod, &f2, core.Budget{}, trace.FormatVTR2, trace.ContainerOptions{BlockBytes: 512, Codec: "flate"}); err != nil {
			t.Fatal(err)
		}
		evs1, err := trace.ReadAll(trace.NewDecoder(bytes.NewReader(f1.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		c, err := trace.OpenContainer(bytes.NewReader(f2.Bytes()), int64(f2.Len()), nil)
		if err != nil {
			t.Fatal(err)
		}
		evs2, err := c.Cursor().EventRange(nil, 0, c.NumEvents())
		if err != nil {
			t.Fatal(err)
		}
		tr1 := &trace.Trace{Module: mod, Events: evs1}
		tr2 := &trace.Trace{Module: mod, Events: evs2}

		for _, lm := range mod.Loops {
			if len(tr1.Regions(lm.ID)) == 0 {
				continue
			}
			rep1, err := representativeReport(tr1, lm.ID, core.Options{})
			if err != nil {
				t.Fatalf("%s L%d vtr1: %v", k.Name, lm.ID, err)
			}
			rep2, err := representativeReport(tr2, lm.ID, core.Options{})
			if err != nil {
				t.Fatalf("%s L%d vtr2: %v", k.Name, lm.ID, err)
			}
			l1, l2 := fmtRep(rep1), fmtRep(rep2)
			if l1 != l2 {
				t.Errorf("%s loop L%d line %d:\n vtr1: %s\n vtr2: %s", k.Name, lm.ID, lm.Line, l1, l2)
			}
			fmt.Fprintf(&b, "%s|L%d@%d|%s\n", k.Name, lm.ID, lm.Line, l1)
		}
	}
	checkGolden(t, "trace_formats.golden", b.String())
}

// TestGoldenInstanceSeek pins the `analyze -instance K` path: seeking one
// dynamic region of the S2-inner nest through the VTR2 region index must
// produce the same analysis as scanning a VTR1 stream to that instance —
// and the rendered report is pinned as a golden.
func TestGoldenInstanceSeek(t *testing.T) {
	k := kernels.Listing1(12)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	line, err := k.FindLine("@S2-inner")
	if err != nil {
		t.Fatal(err)
	}
	var f1, f2 bytes.Buffer
	if _, err := pipeline.Record(context.Background(), mod, &f1, core.Budget{}, trace.FormatVTR1, trace.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Record(context.Background(), mod, &f2, core.Budget{}, trace.FormatVTR2, trace.ContainerOptions{BlockBytes: 256, Codec: "flate"}); err != nil {
		t.Fatal(err)
	}
	const instance = 2

	o, err := trace.OpenTrace(bytes.NewReader(f2.Bytes()), int64(f2.Len()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Container == nil {
		t.Fatalf("vtr2 file opened without an index: %v", o.IndexErr)
	}
	spec := pipeline.Spec{Line: line, Instances: []int{instance}}
	seek, err := pipeline.Analyze(context.Background(), pipeline.Source{Module: mod, Trace: o}, spec)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := pipeline.Analyze(context.Background(),
		pipeline.Source{Module: mod, Events: trace.NewDecoder(bytes.NewReader(f1.Bytes()))}, spec)
	if err != nil {
		t.Fatal(err)
	}
	repSeek, repScan := seek[0].Report, scan[0].Report
	if repSeek.String() != repScan.String() {
		t.Errorf("indexed seek and sequential scan render different reports:\nseek:\n%s\nscan:\n%s",
			repSeek.String(), repScan.String())
	}
	checkGolden(t, "instance_seek.golden", repSeek.String())
}
