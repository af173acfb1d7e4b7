package pipeline

// The indexed VTR2 driver: the one region driver besides the RegionFeed
// dispatcher, selected by the input itself (a VTR2 file whose footer index
// verified). Its contract matches the fed path exactly — same per-region
// computation (a pooled stream kernel, Workers=1 inside a region), same
// "pipeline: region %d: ..." error texts, same lifecycle counters, results
// in index-addressed slots — so the differential battery can assert
// byte-identical output between a VTR1 sequential scan and a VTR2 indexed
// scan at any worker count. What the index changes is the access pattern:
// regions are decoded from their covering blocks only, fanned across scan
// workers, instead of streaming the whole trace through one decoder. No
// region is materialized: the kernel is fed slices of the cursor's block
// cache as each covering block decodes.

import (
	"context"
	"fmt"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// analyzeIndexed analyzes the loop's regions by seeking through a VTR2
// container's footer index. Selected instances decode only their covering
// blocks, through one cursor. Every region fans out across
// spec.ScanWorkers workers (0 means spec.Core.WorkerCount()), each walking
// its regions' blocks straight into a stream kernel.
//
// Degradation is per-region and strictly better than sequential: damage in
// one region's blocks fails that region alone, while a sequential scan must
// stop at the first damaged byte.
func analyzeIndexed(ctx context.Context, c *trace.Container, mod *ir.Module, loopID int, spec Spec) ([]RegionReport, error) {
	rec := obs.FromContext(ctx)
	regions := c.RegionsOf(loopID)
	if !spec.everyRegion() {
		for _, idx := range spec.Instances {
			if idx >= len(regions) {
				return nil, missingRegion(spec, len(regions), idx)
			}
		}
		cu := c.Cursor()
		byIndex := make(map[int]RegionReport, len(spec.Instances))
		for _, idx := range spec.Instances {
			if _, done := byIndex[idx]; done {
				continue
			}
			r := regions[idx]
			// A damaged region fails the request unbooked, so the clock
			// counts the region as started only once its bytes are sound.
			clock := regionClock{rec: rec, rt: rec.StartTimer("region")}
			if rec != nil {
				clock.start = time.Now()
			}
			rr, kerr, derr := analyzeWalk(ctx, mod, idx, r, func(visit func([]trace.Event) error) (error, error) {
				return cu.WalkRegion(mod, r, visit)
			}, spec)
			if derr != nil {
				return nil, derr
			}
			if rec != nil {
				rec.Add(obs.RegionsStarted, 1)
			}
			clock.finish(&rr, kerr)
			byIndex[idx] = rr
		}
		return inSpecOrder(spec, byIndex)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("pipeline: loop on line %d never executed", spec.Line)
	}
	scanWorkers := spec.ScanWorkers
	if scanWorkers <= 0 {
		scanWorkers = spec.Core.WorkerCount()
	}
	inner := spec
	inner.Core.Workers = 1
	out := make([]RegionReport, len(regions))
	_ = c.ScanIndexedRegions(ctx, mod, loopID, scanWorkers, func(k int, r trace.IndexRegion, walk trace.RegionWalk) {
		clock := startRegion(rec)
		rec.GaugeInc(obs.ResidentRegions, obs.PeakResidentRegions)
		rr, kerr, derr := analyzeWalk(ctx, mod, k, r, walk, inner)
		rec.GaugeDec(obs.ResidentRegions)
		if derr != nil {
			if off, ok := trace.CorruptOffset(derr); ok {
				rec.SetCorruptByte(off)
			}
			kerr = derr
		}
		clock.finish(&rr, kerr)
		out[k] = rr
	})
	out = denseOnCancel(ctx, out)
	return out, joinRegionErrors(ctx, out, nil)
}

// analyzeWalk analyzes region idx with spec.Core as given, feeding a
// pooled stream kernel the slices walk hands over, then finishing it.
// Cancellation is polled every 4096 events and the kernel runs under
// core.Guard, as in AnalyzeRegion. derr is the region's decode or ID
// error, which wins over any kernel error kerr (a budget overrun, a panic,
// cancellation); rr.Report is set only when both are nil. The caller books
// the region's outcome.
func analyzeWalk(ctx context.Context, mod *ir.Module, idx int, r trace.IndexRegion, walk trace.RegionWalk, spec Spec) (rr RegionReport, kerr, derr error) {
	rr = RegionReport{Index: idx, Events: r.Events()}
	rec := obs.FromContext(ctx)
	k := core.AcquireStreamKernel(mod, spec.DDG, spec.Core, rec)
	defer k.Release()
	fed := 0
	kerr, derr = walk(func(events []trace.Event) error {
		sw := rec.StartTimer("sweep")
		defer sw.Stop()
		return core.Guard(idx, "region", int64(idx), func() error {
			for _, ev := range events {
				if fed%4096 == 4095 {
					if err := core.Canceled(ctx); err != nil {
						return err
					}
				}
				fed++
				if err := k.Feed(ev.ID, ev.Addr); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if derr != nil || kerr != nil {
		return rr, kerr, derr
	}
	kerr = core.Guard(idx, "region", int64(idx), func() error {
		rep, err := k.Finish(ctx)
		rr.Report = rep
		return err
	})
	return rr, kerr, nil
}
