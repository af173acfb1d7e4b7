package pipeline_test

// The indexed VTR2 driver feeds each region's kernel from the cursor's block
// cache as the blocks decode. These tests hold it to the materializing
// driver it replaced, kept here as an oracle, and bound its allocations.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// materializedIndexed is the indexed driver as it was before streaming:
// every region is materialized with Cursor.RegionTrace and analyzed by
// AnalyzeRegion, one cursor walking the regions in order. It books the
// counters the driver books.
func materializedIndexed(ctx context.Context, c *trace.Container, mod *ir.Module, spec pipeline.Spec) ([]pipeline.RegionReport, error) {
	rec := obs.FromContext(ctx)
	loop := mod.LoopByLine(spec.Line)
	regions := c.RegionsOf(loop.ID)
	cu := c.Cursor()
	analyze := func(k int, sub *trace.Trace, copts core.Options) pipeline.RegionReport {
		rr := pipeline.RegionReport{Index: k, Events: sub.Len()}
		err := core.Guard(k, "region", int64(k), func() error {
			rep, err := pipeline.AnalyzeRegion(ctx, sub, spec.DDG, copts)
			rr.Report = rep
			return err
		})
		if err != nil {
			rr.Err = fmt.Errorf("pipeline: region %d: %w", k, err)
		}
		return rr
	}
	everyRegion := len(spec.Instances) == 0 || spec.Instances[0] < 0
	if !everyRegion {
		byIndex := map[int]pipeline.RegionReport{}
		for _, idx := range spec.Instances {
			if _, done := byIndex[idx]; done {
				continue
			}
			sub, err := cu.RegionTrace(mod, regions[idx])
			if err != nil {
				return nil, err
			}
			byIndex[idx] = analyze(idx, sub, spec.Core)
		}
		out := make([]pipeline.RegionReport, len(spec.Instances))
		var errs []error
		for i, idx := range spec.Instances {
			out[i] = byIndex[idx]
			if out[i].Err != nil {
				errs = append(errs, out[i].Err)
			}
		}
		return out, errors.Join(errs...)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("pipeline: loop on line %d never executed", spec.Line)
	}
	inner := spec.Core
	inner.Workers = 1
	out := make([]pipeline.RegionReport, len(regions))
	var errs []error
	for k, r := range regions {
		sub, err := cu.RegionTrace(mod, r)
		if err != nil {
			out[k] = pipeline.RegionReport{Index: k, Events: r.Events(), Err: fmt.Errorf("pipeline: region %d: %w", k, err)}
		} else {
			rec.Add(obs.EventsScanned, int64(r.Events()))
			rec.Add(obs.RegionsScanned, 1)
			rec.GaugeInc(obs.ResidentRegions, obs.PeakResidentRegions)
			out[k] = analyze(k, sub, inner)
			rec.GaugeDec(obs.ResidentRegions)
		}
		if out[k].Err != nil {
			errs = append(errs, out[k].Err)
		}
	}
	return out, errors.Join(errs...)
}

// indexedCounters are the counters the streamed driver must book exactly as
// the materializing one did. Blocks read depend on which worker's cursor
// meets which block, so they are compared at one scan worker only.
var indexedCounters = []obs.Counter{obs.RegionIndexHits, obs.EventsScanned, obs.RegionsScanned, obs.ResidentRegions}

// indexedRun is one analysis of a container in comparable form.
type indexedRun struct {
	regs     []pipeline.RegionReport
	errs     []string
	err      string
	counters map[obs.Counter]int64
}

// runIndexed opens data under a fresh recorder and analyzes it with run.
func runIndexed(t *testing.T, data []byte, run func(context.Context, *trace.Container) ([]pipeline.RegionReport, error)) indexedRun {
	t.Helper()
	rec := obs.New()
	c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), rec)
	if err != nil {
		t.Fatal(err)
	}
	regs, err := run(obs.WithRecorder(context.Background(), rec), c)
	out := indexedRun{regs: regs, err: fmt.Sprint(err), counters: map[obs.Counter]int64{}}
	for i := range out.regs {
		out.errs = append(out.errs, fmt.Sprint(out.regs[i].Err))
		out.regs[i].Elapsed, out.regs[i].Err = 0, nil
	}
	for _, ctr := range append(indexedCounters, obs.TraceBlocksRead) {
		out.counters[ctr] = rec.Get(ctr)
	}
	return out
}

// compareIndexed fails the test unless got matches the oracle want.
func compareIndexed(t *testing.T, what string, got, want indexedRun, blocks bool) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error\n  streamed:     %s\n  materialized: %s", what, got.err, want.err)
	}
	if !reflect.DeepEqual(got.errs, want.errs) {
		t.Fatalf("%s: region errors\n  streamed:     %q\n  materialized: %q", what, got.errs, want.errs)
	}
	if !reflect.DeepEqual(got.regs, want.regs) {
		t.Fatalf("%s: region reports differ from the materialized oracle", what)
	}
	counters := indexedCounters
	if blocks {
		counters = append(counters, obs.TraceBlocksRead)
	}
	for _, ctr := range counters {
		if got.counters[ctr] != want.counters[ctr] {
			t.Fatalf("%s: counter %s = %d, materialized oracle %d", what, ctr.Name(), got.counters[ctr], want.counters[ctr])
		}
	}
}

// checkIndexedAgainstOracle analyzes every loop of mod from data — all
// regions at 1, 2 and 4 scan workers, and an instance list with repeats
// out of order — and compares each analysis with the oracle's.
func checkIndexedAgainstOracle(t *testing.T, name string, mod *ir.Module, data []byte, copts core.Options) {
	t.Helper()
	for _, line := range loopLines(mod) {
		all := pipeline.Spec{Line: line, Instances: []int{-1}, Core: copts}
		want := runIndexed(t, data, func(ctx context.Context, c *trace.Container) ([]pipeline.RegionReport, error) {
			return materializedIndexed(ctx, c, mod, all)
		})
		for _, workers := range []int{1, 2, 4} {
			spec := all
			spec.ScanWorkers = workers
			got := runIndexed(t, data, func(ctx context.Context, c *trace.Container) ([]pipeline.RegionReport, error) {
				return pipeline.Analyze(ctx, indexedSource(mod, c), spec)
			})
			compareIndexed(t, fmt.Sprintf("%s line %d, all regions, %d scan workers", name, line, workers), got, want, workers == 1)
		}
		n := len(want.regs)
		if n == 0 {
			continue
		}
		picks := pipeline.Spec{Line: line, Instances: []int{n - 1, 0, n / 2, n - 1}, Core: copts}
		want = runIndexed(t, data, func(ctx context.Context, c *trace.Container) ([]pipeline.RegionReport, error) {
			return materializedIndexed(ctx, c, mod, picks)
		})
		got := runIndexed(t, data, func(ctx context.Context, c *trace.Container) ([]pipeline.RegionReport, error) {
			return pipeline.Analyze(ctx, indexedSource(mod, c), picks)
		})
		compareIndexed(t, fmt.Sprintf("%s line %d, instances %v", name, line, picks.Instances), got, want, true)
	}
}

// recordVTR2 records mod's execution as a VTR2 container.
func recordVTR2(t *testing.T, mod *ir.Module, opts trace.ContainerOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := pipeline.Record(context.Background(), mod, &buf, core.Budget{}, trace.FormatVTR2, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexedStreamMatchesMaterialized: streaming regions from the block
// cache changes nothing observable. On generated programs and the built-in
// kernels, recorded with small blocks so regions span several, every
// report, region error, summary error and indexed-scan counter equals the
// materializing oracle's. A damaged block in a region whose kernel has
// already overrun its budget still fails that region with the decode error.
func TestIndexedStreamMatchesMaterialized(t *testing.T) {
	programs := map[string]string{"recursive": recursiveSrc, "triangular": triangularSrc}
	for seed := int64(0); seed < 6; seed++ {
		programs[fmt.Sprintf("seed%d", seed)] = generateProgram(seed)
	}
	for _, k := range []kernels.Kernel{kernels.GaussSeidel(8, 2),
		kernels.Listing1(12), kernels.Listing2(12), kernels.Listing3(10), kernels.Listing4(10)} {
		programs[k.Name] = k.Source
	}
	for _, p := range kernels.UTDSP() {
		programs[p.Array.Name] = p.Array.Source
	}
	opts := trace.ContainerOptions{BlockBytes: 512, Codec: "flate"}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			mod, err := pipeline.Compile(name+".c", src)
			if err != nil {
				t.Fatal(err)
			}
			checkIndexedAgainstOracle(t, name, mod, recordVTR2(t, mod, opts), core.Options{})
		})
	}

	t.Run("damage-beats-budget", func(t *testing.T) {
		mod, err := pipeline.Compile("budget.c", budgetDemoKernel(12000))
		if err != nil {
			t.Fatal(err)
		}
		data := recordVTR2(t, mod, trace.ContainerOptions{BlockBytes: 1024, Codec: "none"})
		tight := core.Options{Budget: core.Budget{MaxAnalysisBytes: 1}}
		sound := runIndexed(t, data, func(ctx context.Context, c *trace.Container) ([]pipeline.RegionReport, error) {
			return pipeline.Analyze(ctx, indexedSource(mod, c), pipeline.Spec{Line: budgetDemoLoopLine, Instances: []int{-1}, Core: tight})
		})
		if len(sound.errs) != 1 || !bytes.Contains([]byte(sound.errs[0]), []byte(core.ErrResourceLimit.Error())) {
			t.Fatalf("undamaged region should overrun its budget, got %q", sound.errs)
		}
		// A flip three quarters into the data area lands in a block deep
		// inside the one long region, far past the budget overrun.
		damaged := append([]byte{}, data...)
		damaged[len(damaged)*3/4] ^= 0x40
		checkIndexedAgainstOracle(t, "damaged", mod, damaged, tight)
		got := runIndexed(t, damaged, func(ctx context.Context, c *trace.Container) ([]pipeline.RegionReport, error) {
			return pipeline.Analyze(ctx, indexedSource(mod, c), pipeline.Spec{Line: budgetDemoLoopLine, Instances: []int{-1}, Core: tight})
		})
		if len(got.errs) != 1 || !bytes.Contains([]byte(got.errs[0]), []byte("decoding vtr2 block")) {
			t.Fatalf("damaged region should report its decode error, got %q", got.errs)
		}
	})
}

// TestIndexedAllocsSubLinearInRegionLength is the indexed driver's
// memory-regression smoke (VECTRACE_MEM_SMOKE=1), modelled on
// TestOnePassAllocsSubLinearInRegionLength: with the region's candidate
// work fixed and its event count grown 8×, analyzing the VTR2 container —
// every region, and one listed instance — must grow allocated bytes per
// analysis by less than 4×. A driver that materializes its regions grows
// with region length and fails.
func TestIndexedAllocsSubLinearInRegionLength(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	measure := func(reps int, instances []int) float64 {
		mod, err := pipeline.Compile("smoke.c", budgetDemoKernel(reps))
		if err != nil {
			t.Fatal(err)
		}
		data := recordVTR2(t, mod, trace.ContainerOptions{})
		c := openContainer(t, data)
		spec := pipeline.Spec{Line: budgetDemoLoopLine, Instances: instances, Core: core.Options{Workers: 1}, ScanWorkers: 1}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.Analyze(context.Background(), indexedSource(mod, c), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.AllocedBytesPerOp())
	}
	for _, instances := range [][]int{nil, {0}} {
		small := measure(4000, instances)
		large := measure(32000, instances)
		t.Logf("instances %v: alloc B/op: reps=4000 %.0f, reps=32000 %.0f (8× events, %.2f× bytes)", instances, small, large, large/small)
		if small <= 0 {
			small = 1
		}
		if large >= 4*small {
			t.Fatalf("instances %v: allocated bytes grew %.2f× for 8× region length — the indexed driver is materializing regions: %.0f vs %.0f B/op",
				instances, large/small, large, small)
		}
	}
}
