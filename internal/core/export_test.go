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
