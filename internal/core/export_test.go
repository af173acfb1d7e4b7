package core

// SetAnalyzeUnitHook installs a fault-injection hook observing the start of
// every per-candidate analysis stage and returns a restore function. Tests
// use it to inject panics and delays into the sweep; see analyzeUnitHook.
func SetAnalyzeUnitHook(h func(id int32)) (restore func()) {
	old := analyzeUnitHook
	analyzeUnitHook = h
	return func() { analyzeUnitHook = old }
}

// UseMapShadow routes every address of k's shadow memory through the
// overflow map instead of the paged table, so tests can check the paged
// shadow against the plain map. Call it right after AcquireStreamKernel;
// Release clears it.
func (k *StreamKernel) UseMapShadow() { k.mapShadow = true }

// ResetRegion readies k for another region without returning it to the
// pool, so allocation tests see one kernel's steady state whatever the
// garbage collector does to the pool.
func (k *StreamKernel) ResetRegion() { k.reset() }

// StrideStage runs the two stride-stage implementations over the same
// keys, reusing their scratch across calls the way a kernel does.
type StrideStage struct {
	kernel  strideScratch
	literal instrScratch
}

// Kernel is the stream kernel's stats-only stride stage. keys is indexed by
// the partitions' instance handles.
func (s *StrideStage) Kernel(keys [][3]int64, parts []Partition, elemSize int64) (unit, non StrideStats) {
	return s.kernel.stats(keys, parts, elemSize)
}

// Literal is the graph reference's paper-literal §3.2/§3.3 scans.
func (s *StrideStage) Literal(keys [][3]int64, parts []Partition, elemSize int64) (unit, non StrideStats) {
	return strideStatsFn(func(n int32) [3]int64 { return keys[n] }, parts, elemSize, &s.literal)
}

// RowMaxInto and ExtendRow expose the kernel's timestamp-row primitives.
var (
	RowMaxInto = rowMaxInto
	ExtendRow  = extendRow
)
