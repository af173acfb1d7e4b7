package pipeline

// The indexed VTR2 driver: the one region driver besides the RegionFeed
// dispatcher, selected by the input itself (a VTR2 file whose footer index
// verified). Its contract matches the fed path exactly — same per-region
// computation (AnalyzeRegion, Workers=1 inside a region), same
// "pipeline: region %d: ..." error texts, same lifecycle counters, results
// in index-addressed slots — so the differential battery can assert
// byte-identical output between a VTR1 sequential scan and a VTR2 indexed
// scan at any worker count. What the index changes is the access pattern:
// regions are decoded from their covering blocks only, fanned across scan
// workers, instead of streaming the whole trace through one decoder.

import (
	"context"
	"fmt"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// analyzeIndexed analyzes the loop's regions by seeking through a VTR2
// container's footer index. Selected instances decode only their covering
// blocks. Every region fans out across spec.ScanWorkers workers (0 means
// spec.Core.WorkerCount()), each decoding its regions' blocks and running
// the standard per-region analysis in place, so decoded events feed the
// kernel without a handoff.
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
		byIndex := make(map[int]RegionReport, len(spec.Instances))
		for _, idx := range spec.Instances {
			if _, done := byIndex[idx]; done {
				continue
			}
			sub, err := c.Cursor().RegionTrace(mod, regions[idx])
			if err != nil {
				return nil, err
			}
			byIndex[idx] = analyzeOne(ctx, sub, idx, spec)
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
	_ = c.ScanIndexedRegions(ctx, mod, loopID, scanWorkers, func(k int, r trace.IndexRegion, sub *trace.Trace, derr error) {
		if derr != nil {
			clock := startRegion(rec)
			out[k] = RegionReport{Index: k, Events: r.Events()}
			if off, ok := trace.CorruptOffset(derr); ok {
				rec.SetCorruptByte(off)
			}
			clock.finish(&out[k], derr)
			return
		}
		rec.GaugeInc(obs.ResidentRegions, obs.PeakResidentRegions)
		out[k] = analyzeOne(ctx, sub, k, inner)
		rec.GaugeDec(obs.ResidentRegions)
	})
	out = denseOnCancel(ctx, out)
	return out, joinRegionErrors(ctx, out, nil)
}
