package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/diag"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// scanSrc is the synthetic multi-region program behind -scan: the inner
// loop on line 6 opens one dynamic region per outer iteration, so a trace
// with R regions stresses exactly the region-scan machinery the VTR2 index
// parallelizes. The strided array walk keeps the per-region analysis
// non-trivial without dominating the scan cost being measured.
const scanSrc = `
double a[64];
double g;
void main() {
  int t; int i;
  for (t = 0; t < %d; t++) {
    for (i = 0; i < 64; i++) { a[i] = a[i] * 1.5 + g; }
    g = g + a[0];
  }
}
`

// scanLoopLine is the source line of the inner loop in scanSrc.
const scanLoopLine = 7

// runScan benchmarks region-scan throughput on a recorded trace: the VTR1
// sequential scanner versus the VTR2 container — sequential block walk and
// indexed scans at increasing worker counts. Every path runs the identical
// per-region analysis, and the row outputs are cross-checked against the
// VTR1 baseline before a row is printed, so the table doubles as a smoke
// differential. regions picks the dynamic region count (the -scan value).
func runScan(ctx context.Context, regions int, opts core.Options, tf diag.TraceFormat) error {
	src := fmt.Sprintf(scanSrc, regions)
	mod, err := pipeline.Compile("scan.c", src)
	if err != nil {
		return err
	}
	var v1, v2 bytes.Buffer
	if _, err := pipeline.Record(ctx, mod, &v1, core.Budget{}, trace.FormatVTR1, trace.ContainerOptions{}); err != nil {
		return err
	}
	if _, err := pipeline.Record(ctx, mod, &v2, core.Budget{}, trace.FormatVTR2, tf.ContainerOptions()); err != nil {
		return err
	}
	c, err := trace.OpenContainer(bytes.NewReader(v2.Bytes()), int64(v2.Len()), nil)
	if err != nil {
		return err
	}
	// analyze runs every path through the one entry point; the source and
	// the scan fan-out select the driver.
	analyze := func(src pipeline.Source, scanWorkers int) ([]pipeline.RegionReport, error) {
		src.Module = mod
		return pipeline.Analyze(ctx, src, pipeline.Spec{Line: scanLoopLine, Instance: -1, Core: opts, ScanWorkers: scanWorkers})
	}
	vtr1 := func() pipeline.Source {
		return pipeline.Source{Events: trace.NewDecoder(bytes.NewReader(v1.Bytes()))}
	}

	baseline, err := analyze(vtr1(), 0)
	if err != nil {
		return err
	}
	events := 0
	for _, rr := range baseline {
		events += rr.Events
	}

	check := func(regs []pipeline.RegionReport) error {
		if len(regs) != len(baseline) {
			return fmt.Errorf("scan: %d regions, baseline has %d", len(regs), len(baseline))
		}
		for i := range regs {
			if regs[i].Events != baseline[i].Events {
				return fmt.Errorf("scan: region %d has %d events, baseline %d", i, regs[i].Events, baseline[i].Events)
			}
			if regs[i].Report.String() != baseline[i].Report.String() {
				return fmt.Errorf("scan: region %d report differs from baseline", i)
			}
		}
		return nil
	}

	fmt.Printf("== Scan throughput: %d regions, %d region events (vtr1 %d bytes; vtr2 %d bytes, %d blocks, %s) ==\n",
		len(baseline), events, v1.Len(), v2.Len(), c.NumBlocks(), c.Codec())
	fmt.Printf("%-18s %7s %12s %14s %9s\n", "path", "width", "wall", "events/s", "speedup")

	var base time.Duration
	row := func(name string, width int, run func() ([]pipeline.RegionReport, error)) error {
		start := time.Now()
		regs, err := run()
		wall := time.Since(start)
		if err != nil {
			return err
		}
		if err := check(regs); err != nil {
			return err
		}
		if base == 0 {
			base = wall
		}
		rate := float64(events) / wall.Seconds()
		fmt.Printf("%-18s %7d %12s %14.0f %8.2fx\n", name, width, wall.Round(time.Microsecond), rate, float64(base)/float64(wall))
		return nil
	}

	if err := row("vtr1 sequential", 1, func() ([]pipeline.RegionReport, error) {
		return analyze(vtr1(), 0)
	}); err != nil {
		return err
	}
	if err := row("vtr2 sequential", 1, func() ([]pipeline.RegionReport, error) {
		return analyze(pipeline.Source{Events: trace.NewBlockSource(bytes.NewReader(v2.Bytes()), nil)}, 0)
	}); err != nil {
		return err
	}
	maxWidth := opts.WorkerCount()
	if maxWidth < 1 {
		maxWidth = runtime.GOMAXPROCS(0)
	}
	if tf.ScanWorkers > 0 {
		// An explicit -scan-workers pins the top width even past GOMAXPROCS:
		// oversubscribed widths still cross-check correctness.
		maxWidth = tf.ScanWorkers
	}
	for width := 1; ; width *= 2 {
		if width > maxWidth {
			break
		}
		w := width
		if err := row("vtr2 indexed", w, func() ([]pipeline.RegionReport, error) {
			return analyze(pipeline.Source{Trace: &trace.Opened{Format: trace.FormatVTR2, Container: c}}, w)
		}); err != nil {
			return err
		}
	}
	return nil
}
