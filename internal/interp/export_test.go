package interp

import "context"

// RunOracle is RunContext through the reference switch loop (oracle_test.go)
// instead of the plan dispatcher.
func (m *Machine) RunOracle(ctx context.Context, entry string) (*Result, error) {
	return m.runWith(ctx, entry, (*Machine).loop)
}
