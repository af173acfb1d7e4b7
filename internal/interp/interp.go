// Package interp executes VIR modules over a flat, byte-addressed memory,
// playing the role of the paper's instrumented native execution.
//
// The interpreter is deliberately faithful to the machine-level facts the
// dynamic analysis depends on: globals and frame slots occupy real byte
// addresses with C layout, loads and stores touch those addresses with the
// element's true size, and every executed instruction can be observed by a
// Tracer. It also maintains a simple cycle model used by the profile package
// to select hot loops, standing in for the paper's HPCToolkit sampling.
package interp

import (
	"context"
	"fmt"
	"math"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
)

// NoAddr is the address reported for instructions that access no memory.
// It mirrors trace.NoAddr (the interpreter does not import the trace
// package, keeping the instrumentation interface dependency-free).
const NoAddr int64 = -1

// Tracer observes executed instructions. Exec is called once per dynamic
// instance, with the accessed address for loads/stores (NoAddr otherwise).
type Tracer interface {
	Exec(id int32, addr int64)
}

// TraceSink is the canonical Tracer: it appends events to a slice that can
// be wrapped into a trace.Trace. It implements BatchTracer, so the plan
// dispatcher hands it events in recycled ~1K-event chunks.
type TraceSink struct {
	Events []Event
}

// Exec implements Tracer.
func (s *TraceSink) Exec(id int32, addr int64) {
	s.Events = append(s.Events, Event{id, addr})
}

// ExecBatch implements BatchTracer: one append per chunk instead of one
// interface call per event.
func (s *TraceSink) ExecBatch(events []Event) {
	s.Events = append(s.Events, events...)
}

// Config controls execution limits and instrumentation.
type Config struct {
	// Tracer observes every executed instruction; nil disables tracing.
	Tracer Tracer
	// MaxSteps bounds the number of executed instructions (0 means the
	// default of 500M); exceeding it returns an error rather than hanging.
	MaxSteps int64
	// MaxDepth bounds call-stack depth (0 means 10000).
	MaxDepth int
	// StackSize is the per-execution stack arena in bytes (0 means 8 MiB).
	// It is a cap: the arena starts small and doubles on demand up to it.
	StackSize int64
	// CountLoopCycles enables per-loop cycle attribution (see Result.LoopCycles).
	CountLoopCycles bool
	// Plan optionally supplies a precompiled execution plan for the module
	// (see CompilePlan), letting repeated runs or many Machines share one
	// compilation. Nil compiles lazily, cached per Machine. Ignored when
	// it was not compiled from this module.
	Plan *Plan
}

// OpCounts tallies dynamic instructions by cost class, for the SIMD
// execution model.
type OpCounts struct {
	FPAdd  int64 // FP add/sub (and neg)
	FPMul  int64
	FPDiv  int64
	Load   int64
	Store  int64
	Intr   int64 // math intrinsics
	Branch int64
	Other  int64 // integer/address bookkeeping
}

// Total returns the total dynamic instruction count.
func (c *OpCounts) Total() int64 {
	return c.FPAdd + c.FPMul + c.FPDiv + c.Load + c.Store + c.Intr + c.Branch + c.Other
}

// Add accumulates other into c.
func (c *OpCounts) Add(other *OpCounts) {
	c.FPAdd += other.FPAdd
	c.FPMul += other.FPMul
	c.FPDiv += other.FPDiv
	c.Load += other.Load
	c.Store += other.Store
	c.Intr += other.Intr
	c.Branch += other.Branch
	c.Other += other.Other
}

// Result summarizes one execution.
type Result struct {
	// Steps is the number of dynamic instructions executed.
	Steps int64
	// Cycles is the total simulated cycle count.
	Cycles int64
	// LoopCycles maps source loop ID → cycles attributed to that loop as
	// the innermost active loop (exclusive attribution; callers roll up
	// inclusive totals via the module's loop parent links).
	LoopCycles map[int]int64
	// LoopFPOps maps source loop ID → candidate floating-point operations
	// executed with that loop innermost; key -1 collects ops outside any
	// loop. Populated when Config.CountLoopCycles is set.
	LoopFPOps map[int]int64
	// LoopOps maps source loop ID → per-class dynamic op counts with that
	// loop innermost (key -1 for code outside loops). Populated when
	// Config.CountLoopCycles is set.
	LoopOps map[int]*OpCounts
	// LoopParents records each executed loop's run-time parent: the loop
	// that was innermost when this loop was first entered (-1 for top
	// level). Unlike the module's static nesting, this crosses function
	// calls — a loop inside a callee is a run-time child of the calling
	// loop, which is how profilers attribute inclusive time.
	LoopParents map[int]int
	// LoopEntries counts each loop's dynamic entries (executions of its
	// loop.begin marker). Every entry opens exactly one dynamic region, so
	// this is the region count trace.Trace.Regions would report, known
	// without a trace. Populated when Config.CountLoopCycles is set.
	LoopEntries map[int]int64
	// Output collects values passed to the print/printi builtins, in order.
	Output []float64
	// FPOps counts executed candidate floating-point operations.
	FPOps int64
}

// Checksum returns a digest of the program output, used by tests to confirm
// that transformed kernels compute the same values as the originals.
func (r *Result) Checksum() float64 {
	s := 0.0
	for i, v := range r.Output {
		s += v * float64(i%7+1)
	}
	return s
}

// Cost returns the simulated cycle cost of one instruction. The model is a
// simple in-order scalar machine: FP add/sub/mul are a few cycles, division
// and math intrinsics are expensive, memory operations cost a cache-hit
// latency, and bookkeeping integer ops are cheap. Absolute values are
// arbitrary; only relative magnitudes matter for hot-loop selection.
func Cost(in *ir.Instr) int64 {
	switch in.Op {
	case ir.OpBin:
		if in.Type.IsFloat() {
			if in.Bin == ir.DivOp {
				return 20
			}
			return 4
		}
		return 1
	case ir.OpNeg:
		if in.Type.IsFloat() {
			return 2
		}
		return 1
	case ir.OpCmp, ir.OpNot, ir.OpCast, ir.OpPtrAdd, ir.OpGlobalAddr, ir.OpFrameAddr:
		return 1
	case ir.OpLoad, ir.OpStore:
		return 4
	case ir.OpIntrinsic:
		return 40
	case ir.OpCall, ir.OpRet:
		return 5
	case ir.OpBr, ir.OpCondBr:
		return 1
	case ir.OpPrint:
		return 1
	}
	return 1
}

// classify buckets one executed instruction into oc's cost classes.
func classify(in *ir.Instr, oc *OpCounts) {
	switch in.Op {
	case ir.OpBin:
		if in.Type.IsFloat() {
			switch in.Bin {
			case ir.AddOp, ir.SubOp:
				oc.FPAdd++
			case ir.MulOp:
				oc.FPMul++
			case ir.DivOp:
				oc.FPDiv++
			default:
				oc.Other++
			}
		} else {
			oc.Other++
		}
	case ir.OpNeg:
		if in.Type.IsFloat() {
			oc.FPAdd++
		} else {
			oc.Other++
		}
	case ir.OpLoad:
		oc.Load++
	case ir.OpStore:
		oc.Store++
	case ir.OpIntrinsic:
		oc.Intr++
	case ir.OpBr, ir.OpCondBr:
		oc.Branch++
	default:
		oc.Other++
	}
}

type frame struct {
	fn        *ir.Function
	regs      []uint64
	base      int64 // frame base address
	retDst    ir.Reg
	retBlock  int32 // caller resume position (reference switch loop)
	retIndex  int32
	retPC     int32 // caller resume position (plan dispatcher, flat index)
	loopsOpen int   // loops opened within this frame (for early-return cleanup)
}

// Machine executes a module. A Machine is single-use per Run call but may be
// reused for repeated runs of the same module.
type Machine struct {
	Mod *ir.Module
	Cfg Config

	mem       []byte
	memCap    int64 // the arena's full size: globals plus Config.StackSize
	frames    []frame
	stackTop  int64
	frameBase int64 // first stack address; below it lie the globals
	loopStack []int32
	res       Result

	plan    *Plan   // lazily compiled plan, cached per module
	batch   []Event // recycled batch buffer for the BatchTracer path
	args    []uint64
	batched int64 // events delivered via ExecBatch this run
}

// New returns a Machine for the module.
func New(mod *ir.Module, cfg Config) *Machine {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 10000
	}
	if cfg.StackSize == 0 {
		cfg.StackSize = 8 << 20
	}
	return &Machine{Mod: mod, Cfg: cfg}
}

// Run executes the module's entry function (by name) and returns the
// execution summary.
func (m *Machine) Run(entry string) (*Result, error) {
	return m.RunContext(context.Background(), entry)
}

// RunContext is Run with cooperative cancellation: ctx is polled on the
// step counter (every ctxCheckInterval executed instructions), so a
// runaway or merely long execution returns shortly after ctx is done with
// an error wrapping core.ErrCanceled and ctx's own error. Resource-limit
// exhaustion — the step bound, the call-depth bound, and the stack arena —
// returns an error wrapping core.ErrResourceLimit; none of these
// conditions panic.
func (m *Machine) RunContext(ctx context.Context, entry string) (*Result, error) {
	return m.runWith(ctx, entry, (*Machine).runPlan)
}

// runWith sets up memory, globals, and the entry frame, then executes
// through dispatch: the plan dispatcher in production, the reference
// switch loop in the package's tests.
func (m *Machine) runWith(ctx context.Context, entry string, dispatch func(*Machine, context.Context) error) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fn := m.Mod.FuncByName(entry)
	if fn == nil {
		return nil, fmt.Errorf("interp: no function %q", entry)
	}
	if fn.NumParams != 0 {
		return nil, fmt.Errorf("interp: entry function %q must take no parameters", entry)
	}

	m.stackTop = m.Mod.GlobalsEnd()
	// Align the stack base.
	m.stackTop = (m.stackTop + 15) / 16 * 16
	m.frameBase = m.stackTop
	m.memCap = m.Mod.GlobalsEnd() + m.Cfg.StackSize
	m.mem = make([]byte, min(m.memCap, m.frameBase+initialStack))
	for _, g := range m.Mod.Globals {
		copy(m.mem[g.Addr:g.Addr+g.Size], g.Init)
	}

	m.res = Result{}
	if m.Cfg.CountLoopCycles {
		m.res.LoopCycles = make(map[int]int64)
		m.res.LoopFPOps = make(map[int]int64)
		m.res.LoopOps = make(map[int]*OpCounts)
		m.res.LoopParents = make(map[int]int)
		m.res.LoopEntries = make(map[int]int64)
	}
	m.frames = m.frames[:0]
	m.loopStack = m.loopStack[:0]
	if err := m.pushFrame(fn, ir.RegNone, 0, 0); err != nil {
		return nil, err
	}

	if err := dispatch(m, ctx); err != nil {
		return nil, err
	}
	return &m.res, nil
}

// initialStack is the stack the arena starts with. Most programs never
// outgrow it; deep recursion doubles the arena up to Config.StackSize.
const initialStack = 64 << 10

// reserve makes the arena cover addresses [0, end), doubling it (capped at
// memCap) when end lies past its current length. It reports false when end
// lies past the cap — the bytes the full arena would not have had. Growth
// preserves contents and zero-fills, so a lazily grown arena is
// indistinguishable from one allocated at its full size.
//
//go:noinline
func (m *Machine) reserve(end int64) bool {
	n := int64(len(m.mem))
	if end <= n {
		return true
	}
	if end > m.memCap {
		return false
	}
	for n < end {
		n *= 2
	}
	grown := make([]byte, min(n, m.memCap))
	copy(grown, m.mem)
	m.mem = grown
	return true
}

// pushFrame reserves a callee frame in the stack arena. Arena exhaustion is
// a resource-limit error (Config.StackSize, default 8 MiB), not a panic:
// recursion depth is workload-dependent, so running out must degrade the
// one analysis that hit it.
func (m *Machine) pushFrame(fn *ir.Function, retDst ir.Reg, retBlock, retIndex int32) error {
	base := m.stackTop
	m.stackTop += fn.FrameSize
	if !m.reserve(m.stackTop) {
		m.stackTop = base
		return fmt.Errorf("interp: stack overflow: frame for %s exhausts the %d-byte arena at call depth %d: %w",
			fn.Name, m.Cfg.StackSize, len(m.frames), core.ErrResourceLimit)
	}
	m.frames = append(m.frames, frame{
		fn:       fn,
		regs:     make([]uint64, fn.NumRegs),
		base:     base,
		retDst:   retDst,
		retBlock: retBlock,
		retIndex: retIndex,
	})
	return nil
}

func (m *Machine) top() *frame { return &m.frames[len(m.frames)-1] }

// ctxCheckInterval is the cancellation-poll granularity of the dispatcher:
// ctx.Err is consulted once per this many executed instructions, so the
// amortized cost is negligible while cancellation latency stays in the
// microsecond range for any real workload.
const ctxCheckInterval = 16384

func castValue(from, to ir.ScalarType, x uint64) uint64 {
	switch {
	case from == ir.I64 && to.IsFloat():
		v := float64(int64(x))
		if to == ir.F32 {
			v = float64(float32(v))
		}
		return math.Float64bits(v)
	case from.IsFloat() && to == ir.I64:
		return uint64(int64(math.Float64frombits(x)))
	case from == ir.F64 && to == ir.F32:
		return math.Float64bits(float64(float32(math.Float64frombits(x))))
	case from == ir.F32 && to == ir.F64:
		return x // already widened in the register file
	}
	return x
}

func evalIntrinsic(intr ir.Intrinsic, x float64) float64 {
	switch intr {
	case ir.IntrExp:
		return math.Exp(x)
	case ir.IntrSqrt:
		return math.Sqrt(x)
	case ir.IntrSin:
		return math.Sin(x)
	case ir.IntrCos:
		return math.Cos(x)
	case ir.IntrFabs:
		return math.Abs(x)
	case ir.IntrLog:
		return math.Log(x)
	}
	return x
}
