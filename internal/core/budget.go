package core

// Budget bounds the resources one analysis (or the execution feeding it)
// may consume. It promotes the interpreter's historical hard limits — the
// step bound, the call-depth bound, and the stack arena whose exhaustion
// used to panic — and the analysis working-set bound into one
// caller-visible policy, checked at region granularity: exceeding any
// field yields an error wrapping ErrResourceLimit, never a panic.
//
// The zero Budget imposes no analysis bound and leaves the interpreter's
// defaults in place, so existing callers are unaffected.

import "fmt"

// Budget is the resource policy for one analysis pipeline.
type Budget struct {
	// MaxSteps bounds the dynamic instructions the interpreter executes
	// (0 keeps the interpreter's 500M default).
	MaxSteps int64
	// MaxDepth bounds the interpreter call-stack depth (0 keeps the
	// interpreter's default of 10000).
	MaxDepth int
	// MaxStackBytes is the interpreter's stack arena size (0 keeps the
	// interpreter's 8 MiB default).
	MaxStackBytes int64
	// MaxAnalysisBytes bounds the analysis working set of one region: the
	// stream kernel's nominal live bytes (see StreamKernel.PeakLiveBytes),
	// or, in the AnalyzeCtx reference, the per-worker timestamp vectors
	// plus the per-candidate result rows. 0 means unlimited. Exceeding it
	// fails with ErrResourceLimit instead of allocating past the budget.
	MaxAnalysisBytes int64
}

// analysisFootprint estimates the AnalyzeCtx working set in bytes for a
// graph of nNodes nodes swept by `workers` concurrent candidates: each
// in-flight candidate holds a 4-byte timestamp per node, and every
// candidate contributes a result row (dominated by the InstrReport).
func analysisFootprint(nNodes, nCandidates, workers int) int64 {
	const perCandidate = 256 // InstrReport + instance-index bookkeeping
	return 4*int64(nNodes)*int64(workers) + int64(nCandidates)*perCandidate
}

// checkAnalysisBudget verifies that analyzing a graph of nNodes nodes and
// nCandidates candidates fits b.MaxAnalysisBytes on a single worker,
// returning an ErrResourceLimit-wrapped error when it does not.
func (b Budget) checkAnalysisBudget(nNodes, nCandidates int) error {
	if b.MaxAnalysisBytes <= 0 {
		return nil
	}
	if need := analysisFootprint(nNodes, nCandidates, 1); need > b.MaxAnalysisBytes {
		return fmt.Errorf("core: analysis of %d nodes / %d candidates needs ≥ %d bytes, budget %d: %w",
			nNodes, nCandidates, need, b.MaxAnalysisBytes, ErrResourceLimit)
	}
	return nil
}
