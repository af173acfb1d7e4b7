// Precompiled execution plans: the interpreter's hot-path engine.
//
// loop() in interp.go re-derives everything about an instruction on every
// dynamic execution — operand kinds, cost class, address arithmetic, loop
// attribution — through a 20-way switch over the fat ir.Instr struct. A
// Plan lowers each ir.Function once into a flat array of planInstr entries
// with all of that precomputed: operands are resolved to direct register
// indices (constants are interned into a per-function pool appended to the
// register file, so operand reads never branch on a kind), global/slot
// addresses are folded at compile time, branch targets are flat code
// indices, the cycle cost and cost class are per-entry fields, and the
// three dominant two-instruction idioms (compare feeding a conditional
// branch, pointer arithmetic feeding a load/store, frame address feeding a
// load/store) are fused into superinstructions. planLoop then dispatches
// on a dense planOp byte with no per-step re-decoding.
//
// The plan dispatcher is bit-for-bit equivalent to the reference switch
// loop (oracle_test.go): same results, same trace event sequence, same
// error texts at the same step boundaries, same observability gauges at
// the same poll points. Fused entries perform full per-sub-step
// bookkeeping (step count, step-limit check, cancellation poll countdown)
// so resource-limit errors fire at exactly the oracle's boundaries.
package interp

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
)

// Event is one traced dynamic instruction: the static instruction ID and
// the accessed address (NoAddr for instructions that touch no memory). It
// is layout-identical to trace.Event; the interpreter does not import the
// trace package, so batching sinks convert (or alias) per chunk.
type Event struct {
	ID   int32
	Addr int64
}

// BatchTracer is an optional Tracer extension: a sink that accepts events
// in chunks pays one interface call per ~1K events instead of one per
// executed instruction. The chunk slice is owned by the interpreter and
// recycled immediately after ExecBatch returns — implementations must copy
// (or fully consume) it before returning and must not retain it.
type BatchTracer interface {
	Tracer
	ExecBatch(events []Event)
}

// planBatchEvents is the batch granularity of the batched tracer path: the
// event chunk handed to ExecBatch. It matches the pipeline's stream chunk
// size so a batch maps 1:1 onto a recycled pipeline chunk.
const planBatchEvents = 1024

// planOp is the dense opcode of one plan entry. Float binops are
// specialized by operator and width so the hot arithmetic cases decode
// nothing at run time; the trailing group are superinstructions executing
// two fused VIR instructions in one dispatch.
type planOp uint8

const (
	pInvalid planOp = iota

	pFAdd   // dst = x + y (f64)
	pFSub   // dst = x - y (f64)
	pFMul   // dst = x * y (f64)
	pFDiv   // dst = x / y (f64)
	pFAdd32 // f32 variants round the result through float32
	pFSub32
	pFMul32
	pFDiv32
	pFBadBin // rem (or unknown) binop on float operands: runtime error
	pIAdd    // dst = x + y (i64)
	pISub
	pIMul
	pIDiv // zero divisor: runtime error
	pIRem
	pIBadBin // unknown integer binop: runtime error
	pNegF
	pNegI
	pNot
	pCmp
	pCast
	pLoad
	pStore
	pMovePool  // dst = x (pool register holding a folded global address)
	pFrameAddr // dst = frame base + off
	pPtrAdd    // dst = x + y*scale + off
	pIntrinsic
	pPrint
	pCall // a = callee function index, b = argument-set index or -1
	pBr   // a = flat target
	pCondBr
	pRet       // flag = function returns a value
	pLoopBegin // a = loop ID
	pLoopEnd
	pLoopIter
	pBadOp // unknown ir.Opcode (a holds it): runtime error
	pTrap  // fell off the end of block a

	// Superinstructions: two fused VIR instructions, one dispatch.
	pCmpBr      // cmp (dst, pred, flag=float) + condbr on its result (a/b)
	pPtrLoad    // ptradd (dst, x,y,scale,off) + load through it (dst2, typ)
	pPtrStore   // ptradd (dst) + store z through it (typ)
	pFrameLoad  // faddr (dst, off) + load through it (dst2, typ)
	pFrameStore // faddr (dst, off) + store z through it (typ)
)

// Cost-class indices of the loop-attribution accumulator; the order matches
// OpCounts field order (see loopAttr.flushInto).
const (
	clsFPAdd = iota
	clsFPMul
	clsFPDiv
	clsLoad
	clsStore
	clsIntr
	clsBranch
	clsOther
	numCls
)

// planInstr is one precompiled plan entry. Field use depends on op; the
// layout is flat and pointer-free, sized and ordered to keep an entry at
// 72 bytes — the dominant dispatch cost is the entry fetch. The operand
// fields xReg/yReg/zReg always index the frame's pool-extended register
// file (constants included), so operand reads never branch. For
// superinstructions, id/dst describe the first fused VIR instruction and
// id2/dst2 the second; line is the source line of the sub-instruction that
// can fail. Call argument operands live in a side table on funcPlan.
type planInstr struct {
	scale int64 // pPtrAdd/pPtrLoad/pPtrStore
	off   int64 // pointer/frame byte offset

	id   int32
	id2  int32
	dst  int32 // destination register, -1 when none
	dst2 int32
	xReg int32
	yReg int32
	zReg int32 // pPtrStore/pFrameStore: the store's value operand
	line int32
	a, b int32 // branch targets / callee+argset / loop ID / trap block / bad opcode

	op   planOp
	flag bool // pCmp/pCmpBr: float compare; pRet: has value
	cls  uint8
	cand uint8 // 1 when the entry counts toward FPOps / LoopFPOps
	typ  ir.ScalarType
	from ir.ScalarType
	pred ir.CmpPred
	intr ir.Intrinsic
	size uint8 // memory element size for bounds checks
	cost uint8 // precomputed cycle cost (before the frame-access discount)
}

// funcPlan is one function's compiled code: a flat entry array, the entry
// index of each basic block (the branch-target space), the constant pool
// materialized into registers NumRegs.. of every frame, and the call
// argument side table (register indices) indexed by a pCall entry's b.
type funcPlan struct {
	code       []planInstr
	blockStart []int32
	pool       []uint64
	argSets    [][]int32
	regsNeed   int32 // NumRegs + len(pool): frame register-file size
}

// Plan is a module's precompiled execution plan. Compiling is a pure
// function of the module, so one Plan may be shared by any number of
// Machines (and goroutines) running the same finalized module.
type Plan struct {
	mod   *ir.Module
	funcs []funcPlan
}

// CompilePlan lowers every function of a finalized module into its
// precompiled execution plan.
func CompilePlan(mod *ir.Module) *Plan {
	p := &Plan{mod: mod, funcs: make([]funcPlan, len(mod.Funcs))}
	for i, fn := range mod.Funcs {
		p.funcs[i] = compileFunc(mod, fn)
	}
	return p
}

// fusesWithNext reports whether instruction i of instrs starts a fusable
// two-instruction idiom: a compare consumed by the immediately following
// conditional branch, or address arithmetic (ptradd / frame address)
// consumed as the address of the immediately following load/store. The
// producing register is still written by the superinstruction, so later
// (or cross-block) readers of it are unaffected.
func fusesWithNext(instrs []ir.Instr, i int) bool {
	if i+1 >= len(instrs) {
		return false
	}
	in, next := &instrs[i], &instrs[i+1]
	if in.Dst == ir.RegNone {
		return false
	}
	switch in.Op {
	case ir.OpCmp:
		return next.Op == ir.OpCondBr && next.X.Kind == ir.KindReg && next.X.Reg == in.Dst
	case ir.OpPtrAdd, ir.OpFrameAddr:
		return (next.Op == ir.OpLoad || next.Op == ir.OpStore) &&
			next.X.Kind == ir.KindReg && next.X.Reg == in.Dst
	}
	return false
}

// fnCompiler carries per-function lowering state: the constant pool grows
// as operands are resolved, deduplicated by bit pattern.
type fnCompiler struct {
	mod     *ir.Module
	fn      *ir.Function
	fp      funcPlan
	poolIdx map[uint64]int32
}

// operandReg resolves an operand to a register index in the pool-extended
// register file: real registers keep their index, constants intern into
// the pool (KindNone resolves to constant 0, matching Machine.operand).
func (c *fnCompiler) operandReg(o ir.Operand) int32 {
	if o.Kind == ir.KindReg {
		return int32(o.Reg)
	}
	v := uint64(0)
	if o.Kind == ir.KindConstInt || o.Kind == ir.KindConstFloat {
		v = o.Imm
	}
	return c.poolReg(v)
}

// poolReg interns one constant value and returns its register index.
func (c *fnCompiler) poolReg(v uint64) int32 {
	if i, ok := c.poolIdx[v]; ok {
		return i
	}
	i := int32(c.fn.NumRegs) + int32(len(c.fp.pool))
	c.fp.pool = append(c.fp.pool, v)
	c.poolIdx[v] = i
	return i
}

func compileFunc(mod *ir.Module, fn *ir.Function) funcPlan {
	c := &fnCompiler{mod: mod, fn: fn, poolIdx: make(map[uint64]int32)}
	c.fp.blockStart = make([]int32, len(fn.Blocks))

	// Pass 1: lay out entry indices so branch targets resolve to flat
	// positions. Fusion decisions are recomputed identically in pass 2.
	n := int32(0)
	for bi, b := range fn.Blocks {
		c.fp.blockStart[bi] = n
		for i := 0; i < len(b.Instrs); i++ {
			if fusesWithNext(b.Instrs, i) {
				i++
			}
			n++
		}
		if t := b.Terminator(); t == nil || !t.Op.IsTerminator() {
			n++ // synthetic pTrap: "fell off end of block"
		}
	}

	c.fp.code = make([]planInstr, 0, n)
	for bi, b := range fn.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := &b.Instrs[i]
			if fusesWithNext(b.Instrs, i) {
				c.fp.code = append(c.fp.code, c.lowerFused(in, &b.Instrs[i+1]))
				i++
				continue
			}
			e := c.lowerInstr(in)
			if in.Op == ir.OpCall {
				e.b = -1
				if len(in.Args) > 0 {
					args := make([]int32, len(in.Args))
					for k, a := range in.Args {
						args[k] = c.operandReg(a)
					}
					e.b = int32(len(c.fp.argSets))
					c.fp.argSets = append(c.fp.argSets, args)
				}
			}
			c.fp.code = append(c.fp.code, e)
		}
		if t := b.Terminator(); t == nil || !t.Op.IsTerminator() {
			c.fp.code = append(c.fp.code, planInstr{op: pTrap, a: int32(bi)})
		}
	}
	c.fp.regsNeed = int32(fn.NumRegs) + int32(len(c.fp.pool))
	return c.fp
}

// classIndex mirrors classify() as a pure function of the static
// instruction, so the class is a plan-entry constant.
func classIndex(in *ir.Instr) uint8 {
	switch in.Op {
	case ir.OpBin:
		if in.Type.IsFloat() {
			switch in.Bin {
			case ir.AddOp, ir.SubOp:
				return clsFPAdd
			case ir.MulOp:
				return clsFPMul
			case ir.DivOp:
				return clsFPDiv
			}
		}
		return clsOther
	case ir.OpNeg:
		if in.Type.IsFloat() {
			return clsFPAdd
		}
		return clsOther
	case ir.OpLoad:
		return clsLoad
	case ir.OpStore:
		return clsStore
	case ir.OpIntrinsic:
		return clsIntr
	case ir.OpBr, ir.OpCondBr:
		return clsBranch
	}
	return clsOther
}

func (c *fnCompiler) lowerInstr(in *ir.Instr) planInstr {
	e := planInstr{
		op:   pBadOp,
		id:   in.ID,
		dst:  int32(in.Dst),
		line: int32(in.Pos.Line),
		cost: uint8(Cost(in)),
		cls:  classIndex(in),
		a:    int32(in.Op),
	}
	if in.IsCandidate() {
		e.cand = 1
	}
	e.xReg = c.operandReg(in.X)
	e.yReg = c.operandReg(in.Y)

	switch in.Op {
	case ir.OpBin:
		if in.Type.IsFloat() {
			f32 := in.Type == ir.F32
			switch in.Bin {
			case ir.AddOp:
				e.op = pFAdd
			case ir.SubOp:
				e.op = pFSub
			case ir.MulOp:
				e.op = pFMul
			case ir.DivOp:
				e.op = pFDiv
			default:
				e.op, e.a = pFBadBin, int32(in.Bin)
			}
			if f32 && e.op != pFBadBin {
				e.op += pFAdd32 - pFAdd
			}
		} else {
			switch in.Bin {
			case ir.AddOp:
				e.op = pIAdd
			case ir.SubOp:
				e.op = pISub
			case ir.MulOp:
				e.op = pIMul
			case ir.DivOp:
				e.op = pIDiv
			case ir.RemOp:
				e.op = pIRem
			default:
				e.op = pIBadBin
			}
		}
	case ir.OpNeg:
		e.op = pNegI
		if in.Type.IsFloat() {
			e.op = pNegF
		}
	case ir.OpNot:
		e.op = pNot
	case ir.OpCmp:
		e.op, e.pred, e.flag = pCmp, in.Pred, in.From.IsFloat()
	case ir.OpCast:
		e.op, e.from, e.typ = pCast, in.From, in.Type
	case ir.OpLoad:
		e.op, e.typ, e.size = pLoad, in.Type, uint8(in.Type.Size())
	case ir.OpStore:
		e.op, e.typ, e.size = pStore, in.Type, uint8(in.Type.Size())
	case ir.OpGlobalAddr:
		// The global's absolute address is fixed by Finalize: fold it into
		// a pooled constant and emit a plain register move.
		e.op = pMovePool
		e.xReg = c.poolReg(uint64(c.mod.Globals[in.Global].Addr))
	case ir.OpFrameAddr:
		e.op, e.off = pFrameAddr, c.fn.Slots[in.Slot].Offset
	case ir.OpPtrAdd:
		e.op, e.scale, e.off = pPtrAdd, in.Scale, in.Off
	case ir.OpCall:
		e.op, e.a = pCall, in.Callee
	case ir.OpIntrinsic:
		e.op, e.intr = pIntrinsic, in.Intr
	case ir.OpPrint:
		e.op, e.typ = pPrint, in.Type
	case ir.OpBr:
		e.op, e.a = pBr, c.fp.blockStart[in.Then]
	case ir.OpCondBr:
		e.op, e.a, e.b = pCondBr, c.fp.blockStart[in.Then], c.fp.blockStart[in.Else]
	case ir.OpRet:
		e.op, e.flag = pRet, in.X.Kind != ir.KindNone
	case ir.OpLoopBegin:
		e.op, e.a = pLoopBegin, in.Loop
	case ir.OpLoopEnd:
		e.op = pLoopEnd
	case ir.OpLoopIter:
		e.op = pLoopIter
	}
	return e
}

// lowerFused builds a superinstruction from the pair (in, next) accepted by
// fusesWithNext. The entry carries the first instruction in the primary
// fields and the second in id2/dst2/typ; the second sub-instruction's cost
// and class are constants of the opcode and live in the dispatch case.
func (c *fnCompiler) lowerFused(in, next *ir.Instr) planInstr {
	e := planInstr{
		id:   in.ID,
		id2:  next.ID,
		dst:  int32(in.Dst),
		line: int32(next.Pos.Line),
		cost: uint8(Cost(in)), // cmp, ptradd, and faddr all cost 1, class Other
		cls:  classIndex(in),
	}
	e.xReg = c.operandReg(in.X)
	e.yReg = c.operandReg(in.Y)
	isLoad := next.Op == ir.OpLoad
	switch in.Op {
	case ir.OpCmp:
		e.op, e.pred, e.flag = pCmpBr, in.Pred, in.From.IsFloat()
		e.a, e.b = c.fp.blockStart[next.Then], c.fp.blockStart[next.Else]
		return e
	case ir.OpFrameAddr:
		e.off = c.fn.Slots[in.Slot].Offset
		if isLoad {
			e.op, e.dst2 = pFrameLoad, int32(next.Dst)
		} else {
			e.op = pFrameStore
			e.zReg = c.operandReg(next.Y)
		}
	default: // OpPtrAdd
		e.scale, e.off = in.Scale, in.Off
		if isLoad {
			e.op, e.dst2 = pPtrLoad, int32(next.Dst)
		} else {
			e.op = pPtrStore
			e.zReg = c.operandReg(next.Y)
		}
	}
	e.typ, e.size = next.Type, uint8(next.Type.Size())
	return e
}

// loopAttr is the per-innermost-loop attribution accumulator: the plan
// dispatcher tallies cycles, candidate FP ops, and cost classes locally and
// flushes into the Result maps only when the innermost loop changes,
// instead of three map operations per executed instruction.
type loopAttr struct {
	cyc int64
	fp  int64
	cls [numCls]int64
}

// flushInto merges the accumulator into the result maps under loop key cur
// and resets it. A zero accumulator is a no-op so no spurious map keys
// appear: any executed step contributes at least one cycle, so key
// creation matches the oracle exactly.
func (a *loopAttr) flushInto(res *Result, cur int) {
	if a.cyc == 0 {
		return
	}
	res.LoopCycles[cur] += a.cyc
	oc := res.LoopOps[cur]
	if oc == nil {
		oc = &OpCounts{}
		res.LoopOps[cur] = oc
	}
	oc.FPAdd += a.cls[clsFPAdd]
	oc.FPMul += a.cls[clsFPMul]
	oc.FPDiv += a.cls[clsFPDiv]
	oc.Load += a.cls[clsLoad]
	oc.Store += a.cls[clsStore]
	oc.Intr += a.cls[clsIntr]
	oc.Branch += a.cls[clsBranch]
	oc.Other += a.cls[clsOther]
	if a.fp != 0 {
		res.LoopFPOps[cur] += a.fp
	}
	*a = loopAttr{}
}

// planForModule returns the plan to execute: the caller-supplied one when
// it matches the module, else a per-Machine lazily compiled (and cached)
// plan.
func (m *Machine) planForModule() *Plan {
	if p := m.Cfg.Plan; p != nil && p.mod == m.Mod {
		return p
	}
	if m.plan == nil || m.plan.mod != m.Mod {
		m.plan = CompilePlan(m.Mod)
	}
	return m.plan
}

// planPushFrame is pushFrame for the plan dispatcher: identical stack
// accounting and error text, but frame register files are recycled across
// calls (cleared on reuse to preserve zero-init semantics), sized for the
// pool-extended register space, and populated with the callee's constant
// pool; the resume position is a flat plan index.
func (m *Machine) planPushFrame(plan *Plan, fnIdx int32, retDst ir.Reg, retPC int32) error {
	fn := m.Mod.Funcs[fnIdx]
	fp := &plan.funcs[fnIdx]
	base := m.stackTop
	m.stackTop += fn.FrameSize
	if !m.reserve(m.stackTop) {
		m.stackTop = base
		return fmt.Errorf("interp: stack overflow: frame for %s exhausts the %d-byte arena at call depth %d: %w",
			fn.Name, m.Cfg.StackSize, len(m.frames), core.ErrResourceLimit)
	}
	if len(m.frames) < cap(m.frames) {
		m.frames = m.frames[:len(m.frames)+1]
	} else {
		m.frames = append(m.frames, frame{})
	}
	fr := &m.frames[len(m.frames)-1]
	regs := fr.regs
	need := int(fp.regsNeed)
	if cap(regs) < need {
		regs = make([]uint64, need)
	} else {
		regs = regs[:need]
		clear(regs[:fn.NumRegs])
	}
	copy(regs[fn.NumRegs:], fp.pool)
	*fr = frame{fn: fn, regs: regs, base: base, retDst: retDst, retPC: retPC}
	return nil
}

// planFail flushes any batched trace events (the oracle delivers every
// pre-error event, so the batched path must too) and passes the error
// through. Called on every error exit of planLoop.
func (m *Machine) planFail(bt BatchTracer, batch []Event, err error) error {
	if bt != nil && len(batch) > 0 {
		bt.ExecBatch(batch)
		m.batched += int64(len(batch))
	}
	return err
}

// runPlan executes via the precompiled plan. It reports the same
// observability gauges at the same points as loop().
func (m *Machine) runPlan(ctx context.Context) error {
	rec := obs.FromContext(ctx)
	if rec != nil {
		rec.Set(obs.BudgetMaxSteps, m.Cfg.MaxSteps)
	}
	defer func() {
		if rec != nil {
			rec.Max(obs.InterpSteps, m.res.Steps)
			rec.Max(obs.InterpStackBytes, m.stackTop-m.frameBase)
			if m.batched > 0 {
				rec.Add(obs.InterpBatchedEvents, m.batched)
			}
		}
	}()
	return m.planLoop(ctx, rec)
}

// emitTrace delivers one trace event on whichever tracer path is active:
// batch-append (flushing full chunks) for a BatchTracer, a direct interface
// call otherwise. It is deliberately not inlined — the dispatch loop has
// ~25 emission sites, and keeping each to a guarded call keeps the hot
// loop's code footprint (and its branch-predictor pressure) small.
//
//go:noinline
func (m *Machine) emitTrace(bt BatchTracer, tracer Tracer, batch []Event, id int32, addr int64) []Event {
	if bt == nil {
		tracer.Exec(id, addr)
		return batch
	}
	batch = append(batch, Event{id, addr})
	if len(batch) == cap(batch) {
		bt.ExecBatch(batch)
		m.batched += int64(len(batch))
		batch = batch[:0]
	}
	return batch
}

// planPoll is the cancellation-poll body, shared by every per-step check
// site: flush the trace batch (sinks observe the oracle's exact event
// prefix even if cancellation ends the run here), consult the context, and
// update the progress gauges. Cold by construction — it runs once per
// ctxCheckInterval steps.
//
//go:noinline
func (m *Machine) planPoll(ctx context.Context, rec *obs.Recorder, bt BatchTracer, batch []Event, steps int64) ([]Event, error) {
	if bt != nil && len(batch) > 0 {
		bt.ExecBatch(batch)
		m.batched += int64(len(batch))
		batch = batch[:0]
	}
	if err := core.Canceled(ctx); err != nil {
		return batch, fmt.Errorf("interp: after %d steps: %w", steps, err)
	}
	if rec != nil {
		rec.Max(obs.InterpSteps, steps)
		rec.Max(obs.InterpStackBytes, m.stackTop-m.frameBase)
	}
	return batch, nil
}

// planLoop is the plan dispatch loop. Hot state lives in locals (never
// captured by a closure, so it stays in registers / on the stack); the
// Result fields are synced on every exit path. On error exits only Steps
// needs syncing — the Result is discarded by RunContext — but trace
// batches are always flushed so sinks observe the oracle's exact event
// prefix.
//
// Per executed step (including each sub-step of a superinstruction) the
// bookkeeping is: steps++, pollCtr--, and one merged predicted-not-taken
// branch covering both the step limit and the cancellation poll. The
// merged branch tests the limit first, exactly like the oracle, so when
// both would fire on the same step the step-limit error wins.
func (m *Machine) planLoop(ctx context.Context, rec *obs.Recorder) error {
	plan := m.planForModule()
	m.batched = 0

	f := m.top()
	fnIdx := f.fn.Index
	fp := &plan.funcs[fnIdx]
	code := fp.code
	// The entry frame was pushed oracle-style (register file sized
	// NumRegs); extend it with the function's constant pool.
	if len(f.regs) < int(fp.regsNeed) {
		nr := make([]uint64, fp.regsNeed)
		copy(nr, f.regs)
		f.regs = nr
	}
	copy(f.regs[f.fn.NumRegs:fp.regsNeed], fp.pool)
	regs := f.regs
	pc := int32(0)

	var (
		steps, cycles, fpops int64
		maxSteps             = m.Cfg.MaxSteps
		pollCtr              = int64(ctxCheckInterval)
		mem                  = m.mem
		memLen               = int64(len(m.mem))
		fb                   = m.frameBase
		attrib               = m.Cfg.CountLoopCycles
		acc                  loopAttr
		curLoop              = -1
	)

	tracer := m.Cfg.Tracer
	var bt BatchTracer
	var batch []Event
	if b, ok := tracer.(BatchTracer); ok {
		bt = b
		tracer = nil
		if cap(m.batch) < planBatchEvents {
			m.batch = make([]Event, 0, planBatchEvents)
		}
		batch = m.batch[:0]
	}
	traceOn := bt != nil || tracer != nil

	for {
		e := &code[pc]

		steps++
		pollCtr--
		if pollCtr == 0 || steps > maxSteps {
			if steps > maxSteps {
				m.res.Steps = steps
				return m.planFail(bt, batch, fmt.Errorf("interp: exceeded %d steps (infinite loop?): %w", maxSteps, core.ErrResourceLimit))
			}
			pollCtr = ctxCheckInterval
			var perr error
			if batch, perr = m.planPoll(ctx, rec, bt, batch, steps); perr != nil {
				m.res.Steps = steps
				return perr
			}
		}

		switch e.op {
		case pFAdd:
			regs[e.dst] = math.Float64bits(math.Float64frombits(regs[e.xReg]) + math.Float64frombits(regs[e.yReg]))

		case pFSub:
			regs[e.dst] = math.Float64bits(math.Float64frombits(regs[e.xReg]) - math.Float64frombits(regs[e.yReg]))

		case pFMul:
			regs[e.dst] = math.Float64bits(math.Float64frombits(regs[e.xReg]) * math.Float64frombits(regs[e.yReg]))

		case pFDiv:
			regs[e.dst] = math.Float64bits(math.Float64frombits(regs[e.xReg]) / math.Float64frombits(regs[e.yReg]))

		case pFAdd32:
			regs[e.dst] = math.Float64bits(float64(float32(math.Float64frombits(regs[e.xReg]) + math.Float64frombits(regs[e.yReg]))))

		case pFSub32:
			regs[e.dst] = math.Float64bits(float64(float32(math.Float64frombits(regs[e.xReg]) - math.Float64frombits(regs[e.yReg]))))

		case pFMul32:
			regs[e.dst] = math.Float64bits(float64(float32(math.Float64frombits(regs[e.xReg]) * math.Float64frombits(regs[e.yReg]))))

		case pFDiv32:
			regs[e.dst] = math.Float64bits(float64(float32(math.Float64frombits(regs[e.xReg]) / math.Float64frombits(regs[e.yReg]))))

		case pFBadBin:
			m.res.Steps = steps
			return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)",
				fmt.Errorf("interp: %s on float operands", ir.BinOp(e.a)), e.line))

		case pIAdd:
			regs[e.dst] = uint64(int64(regs[e.xReg]) + int64(regs[e.yReg]))

		case pISub:
			regs[e.dst] = uint64(int64(regs[e.xReg]) - int64(regs[e.yReg]))

		case pIMul:
			regs[e.dst] = uint64(int64(regs[e.xReg]) * int64(regs[e.yReg]))

		case pIDiv:
			y := int64(regs[e.yReg])
			if y == 0 {
				m.res.Steps = steps
				return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)",
					fmt.Errorf("interp: integer division by zero"), e.line))
			}
			regs[e.dst] = uint64(int64(regs[e.xReg]) / y)

		case pIRem:
			y := int64(regs[e.yReg])
			if y == 0 {
				m.res.Steps = steps
				return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)",
					fmt.Errorf("interp: integer remainder by zero"), e.line))
			}
			regs[e.dst] = uint64(int64(regs[e.xReg]) % y)

		case pIBadBin:
			m.res.Steps = steps
			return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)",
				fmt.Errorf("interp: unknown binop"), e.line))

		case pNegF:
			regs[e.dst] = math.Float64bits(-math.Float64frombits(regs[e.xReg]))

		case pNegI:
			regs[e.dst] = uint64(-int64(regs[e.xReg]))

		case pNot:
			if regs[e.xReg] == 0 {
				regs[e.dst] = 1
			} else {
				regs[e.dst] = 0
			}

		case pCmp:
			regs[e.dst] = cmpValue(e.pred, e.flag, regs[e.xReg], regs[e.yReg])

		case pCast:
			regs[e.dst] = castValue(e.from, e.typ, regs[e.xReg])

		case pLoad:
			addr := int64(regs[e.xReg])
			if addr < ir.GlobalBase || addr+int64(e.size) > memLen {
				if addr < ir.GlobalBase || !m.reserve(addr+int64(e.size)) {
					m.res.Steps = steps
					return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)",
						fmt.Errorf("interp: load from invalid address %#x", addr), e.line))
				}
				mem, memLen = m.mem, int64(len(m.mem))
			}
			if e.typ == ir.F32 {
				regs[e.dst] = math.Float64bits(float64(math.Float32frombits(binary.LittleEndian.Uint32(mem[addr:]))))
			} else {
				regs[e.dst] = binary.LittleEndian.Uint64(mem[addr:])
			}
			if addr >= fb {
				cycles++
				if attrib {
					acc.cyc++
					acc.cls[clsOther]++
				}
			} else {
				cycles += 4
				if attrib {
					acc.cyc += 4
					acc.cls[clsLoad]++
				}
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, addr)
			}
			pc++
			continue

		case pStore:
			addr := int64(regs[e.xReg])
			if addr < ir.GlobalBase || addr+int64(e.size) > memLen {
				if addr < ir.GlobalBase || !m.reserve(addr+int64(e.size)) {
					m.res.Steps = steps
					return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)",
						fmt.Errorf("interp: store to invalid address %#x", addr), e.line))
				}
				mem, memLen = m.mem, int64(len(m.mem))
			}
			y := regs[e.yReg]
			if e.typ == ir.F32 {
				binary.LittleEndian.PutUint32(mem[addr:], math.Float32bits(float32(math.Float64frombits(y))))
			} else {
				binary.LittleEndian.PutUint64(mem[addr:], y)
			}
			if addr >= fb {
				cycles++
				if attrib {
					acc.cyc++
					acc.cls[clsOther]++
				}
			} else {
				cycles += 4
				if attrib {
					acc.cyc += 4
					acc.cls[clsStore]++
				}
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, addr)
			}
			pc++
			continue

		case pMovePool:
			regs[e.dst] = regs[e.xReg]

		case pFrameAddr:
			regs[e.dst] = uint64(f.base + e.off)

		case pPtrAdd:
			regs[e.dst] = uint64(int64(regs[e.xReg]) + int64(regs[e.yReg])*e.scale + e.off)

		case pIntrinsic:
			regs[e.dst] = math.Float64bits(evalIntrinsic(e.intr, math.Float64frombits(regs[e.xReg])))

		case pPrint:
			v := regs[e.xReg]
			if e.typ == ir.I64 {
				m.res.Output = append(m.res.Output, float64(int64(v)))
			} else {
				m.res.Output = append(m.res.Output, math.Float64frombits(v))
			}

		case pCall:
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
			}
			if len(m.frames) >= m.Cfg.MaxDepth {
				m.res.Steps = steps
				return m.planFail(bt, batch, fmt.Errorf("interp: call depth exceeds %d: %w", m.Cfg.MaxDepth, core.ErrResourceLimit))
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			m.args = m.args[:0]
			if e.b >= 0 {
				for _, r := range fp.argSets[e.b] {
					m.args = append(m.args, regs[r])
				}
			}
			if err := m.planPushFrame(plan, e.a, ir.Reg(e.dst), pc+1); err != nil {
				m.res.Steps = steps
				return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)", err, e.line))
			}
			// The push may have grown the arena.
			mem, memLen = m.mem, int64(len(m.mem))
			f = m.top()
			copy(f.regs, m.args)
			regs = f.regs
			fnIdx = e.a
			fp = &plan.funcs[fnIdx]
			code = fp.code
			pc = 0
			continue

		case pBr:
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsBranch]++
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			pc = e.a
			continue

		case pCondBr:
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsBranch]++
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			if regs[e.xReg] != 0 {
				pc = e.a
			} else {
				pc = e.b
			}
			continue

		case pRet:
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			// Close loops left open by an early return. The return's own
			// cost above is attributed to the loop being exited, exactly as
			// the oracle attributes it to the pre-return innermost loop.
			if f.loopsOpen > 0 {
				if attrib {
					acc.flushInto(&m.res, curLoop)
				}
				for f.loopsOpen > 0 {
					m.loopStack = m.loopStack[:len(m.loopStack)-1]
					f.loopsOpen--
				}
				curLoop = -1
				if len(m.loopStack) > 0 {
					curLoop = int(m.loopStack[len(m.loopStack)-1])
				}
			}
			retVal := uint64(0)
			if e.flag {
				retVal = regs[e.xReg]
			}
			m.stackTop = f.base
			retDst, retPC := f.retDst, f.retPC
			m.frames = m.frames[:len(m.frames)-1]
			if len(m.frames) == 0 {
				m.res.Steps, m.res.Cycles, m.res.FPOps = steps, cycles, fpops
				if attrib {
					acc.flushInto(&m.res, curLoop)
				}
				if bt != nil && len(batch) > 0 {
					bt.ExecBatch(batch)
					m.batched += int64(len(batch))
				}
				return nil
			}
			f = m.top()
			regs = f.regs
			fnIdx = f.fn.Index
			fp = &plan.funcs[fnIdx]
			code = fp.code
			if retDst != ir.RegNone && e.flag {
				regs[retDst] = retVal
			}
			pc = retPC
			continue

		case pLoopBegin:
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
				if _, seen := m.res.LoopParents[int(e.a)]; !seen {
					m.res.LoopParents[int(e.a)] = curLoop
				}
				m.res.LoopEntries[int(e.a)]++
				acc.flushInto(&m.res, curLoop)
			}
			m.loopStack = append(m.loopStack, e.a)
			f.loopsOpen++
			curLoop = int(e.a)
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			pc++
			continue

		case pLoopEnd:
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
			}
			if f.loopsOpen > 0 {
				if attrib {
					acc.flushInto(&m.res, curLoop)
				}
				m.loopStack = m.loopStack[:len(m.loopStack)-1]
				f.loopsOpen--
				curLoop = -1
				if len(m.loopStack) > 0 {
					curLoop = int(m.loopStack[len(m.loopStack)-1])
				}
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			pc++
			continue

		case pLoopIter:
			// Iteration marker: no machine-state effect; shared epilogue
			// handles cost, attribution, and tracing.

		case pCmpBr:
			// Sub-step 1: the compare.
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
			}
			r := cmpValue(e.pred, e.flag, regs[e.xReg], regs[e.yReg])
			regs[e.dst] = r
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			// Sub-step 2: the conditional branch, with full per-step
			// bookkeeping so limits and polls fire at oracle boundaries.
			steps++
			pollCtr--
			if pollCtr == 0 || steps > maxSteps {
				if steps > maxSteps {
					m.res.Steps = steps
					return m.planFail(bt, batch, fmt.Errorf("interp: exceeded %d steps (infinite loop?): %w", maxSteps, core.ErrResourceLimit))
				}
				pollCtr = ctxCheckInterval
				var perr error
				if batch, perr = m.planPoll(ctx, rec, bt, batch, steps); perr != nil {
					m.res.Steps = steps
					return perr
				}
			}
			cycles++
			if attrib {
				acc.cyc++
				acc.cls[clsBranch]++
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id2, NoAddr)
			}
			if r != 0 {
				pc = e.a
			} else {
				pc = e.b
			}
			continue

		case pPtrLoad, pPtrStore:
			// Sub-step 1: the pointer arithmetic.
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
			}
			ptr := uint64(int64(regs[e.xReg]) + int64(regs[e.yReg])*e.scale + e.off)
			regs[e.dst] = ptr
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			// Sub-step 2: the memory access through it, with full per-step
			// bookkeeping so limits and polls fire at oracle boundaries.
			steps++
			pollCtr--
			if pollCtr == 0 || steps > maxSteps {
				if steps > maxSteps {
					m.res.Steps = steps
					return m.planFail(bt, batch, fmt.Errorf("interp: exceeded %d steps (infinite loop?): %w", maxSteps, core.ErrResourceLimit))
				}
				pollCtr = ctxCheckInterval
				var perr error
				if batch, perr = m.planPoll(ctx, rec, bt, batch, steps); perr != nil {
					m.res.Steps = steps
					return perr
				}
			}
			addr := int64(ptr)
			isLoad := e.op == pPtrLoad
			if addr < ir.GlobalBase || addr+int64(e.size) > memLen {
				if addr < ir.GlobalBase || !m.reserve(addr+int64(e.size)) {
					m.res.Steps = steps
					what := "store to"
					if isLoad {
						what = "load from"
					}
					return m.planFail(bt, batch, fmt.Errorf("%w (at line %d)",
						fmt.Errorf("interp: %s invalid address %#x", what, addr), e.line))
				}
				mem, memLen = m.mem, int64(len(m.mem))
			}
			if addr >= fb {
				cycles++
				if attrib {
					acc.cyc++
					acc.cls[clsOther]++
				}
			} else {
				cycles += 4
				if attrib {
					acc.cyc += 4
					if isLoad {
						acc.cls[clsLoad]++
					} else {
						acc.cls[clsStore]++
					}
				}
			}
			if isLoad {
				if e.typ == ir.F32 {
					regs[e.dst2] = math.Float64bits(float64(math.Float32frombits(binary.LittleEndian.Uint32(mem[addr:]))))
				} else {
					regs[e.dst2] = binary.LittleEndian.Uint64(mem[addr:])
				}
			} else {
				// The value operand is read after the pointer register is
				// written, preserving oracle semantics when the store's
				// value is the pointer itself.
				z := regs[e.zReg]
				if e.typ == ir.F32 {
					binary.LittleEndian.PutUint32(mem[addr:], math.Float32bits(float32(math.Float64frombits(z))))
				} else {
					binary.LittleEndian.PutUint64(mem[addr:], z)
				}
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id2, addr)
			}
			pc++
			continue

		case pFrameLoad:
			// Sub-step 1: the frame address (always valid: the frame fits
			// the arena by pushFrame, the slot fits the frame by layout).
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
			}
			addr := f.base + e.off
			regs[e.dst] = uint64(addr)
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			// Sub-step 2: the load — a frame access by construction, so the
			// oracle's discount applies statically: cost 1, class Other.
			steps++
			pollCtr--
			if pollCtr == 0 || steps > maxSteps {
				if steps > maxSteps {
					m.res.Steps = steps
					return m.planFail(bt, batch, fmt.Errorf("interp: exceeded %d steps (infinite loop?): %w", maxSteps, core.ErrResourceLimit))
				}
				pollCtr = ctxCheckInterval
				var perr error
				if batch, perr = m.planPoll(ctx, rec, bt, batch, steps); perr != nil {
					m.res.Steps = steps
					return perr
				}
			}
			cycles++
			if attrib {
				acc.cyc++
				acc.cls[clsOther]++
			}
			if e.typ == ir.F32 {
				regs[e.dst2] = math.Float64bits(float64(math.Float32frombits(binary.LittleEndian.Uint32(mem[addr:]))))
			} else {
				regs[e.dst2] = binary.LittleEndian.Uint64(mem[addr:])
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id2, addr)
			}
			pc++
			continue

		case pFrameStore:
			// Sub-step 1: the frame address (always valid, as above).
			cycles += int64(e.cost)
			if attrib {
				acc.cyc += int64(e.cost)
				acc.cls[clsOther]++
			}
			addr := f.base + e.off
			regs[e.dst] = uint64(addr)
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
			}
			// Sub-step 2: the store — frame access, cost 1, class Other.
			steps++
			pollCtr--
			if pollCtr == 0 || steps > maxSteps {
				if steps > maxSteps {
					m.res.Steps = steps
					return m.planFail(bt, batch, fmt.Errorf("interp: exceeded %d steps (infinite loop?): %w", maxSteps, core.ErrResourceLimit))
				}
				pollCtr = ctxCheckInterval
				var perr error
				if batch, perr = m.planPoll(ctx, rec, bt, batch, steps); perr != nil {
					m.res.Steps = steps
					return perr
				}
			}
			cycles++
			if attrib {
				acc.cyc++
				acc.cls[clsOther]++
			}
			z := regs[e.zReg]
			if e.typ == ir.F32 {
				binary.LittleEndian.PutUint32(mem[addr:], math.Float32bits(float32(math.Float64frombits(z))))
			} else {
				binary.LittleEndian.PutUint64(mem[addr:], z)
			}
			if traceOn {
				batch = m.emitTrace(bt, tracer, batch, e.id2, addr)
			}
			pc++
			continue

		case pTrap:
			// The oracle detects this before counting the step: undo the
			// prologue's accounting so Steps matches exactly.
			steps--
			m.res.Steps = steps
			return m.planFail(bt, batch, fmt.Errorf("interp: %s: fell off end of block b%d", f.fn.Name, e.a))

		default: // pBadOp, pInvalid
			m.res.Steps = steps
			return m.planFail(bt, batch, fmt.Errorf("interp: unknown opcode %s", ir.Opcode(e.a)))
		}

		// Shared epilogue for straight-line register-only entries: static
		// cost/attribution, trace with no address, advance. Memory, control,
		// and fused entries handle their epilogues inline and `continue`.
		cycles += int64(e.cost)
		fpops += int64(e.cand)
		if attrib {
			acc.cyc += int64(e.cost)
			acc.cls[e.cls]++
			acc.fp += int64(e.cand)
		}
		if traceOn {
			batch = m.emitTrace(bt, tracer, batch, e.id, NoAddr)
		}
		pc++
	}
}

// cmpValue is evalCmp as a pure function of the precomputed predicate and
// compare-type flag.
func cmpValue(pred ir.CmpPred, isFloat bool, x, y uint64) uint64 {
	var lt, eq bool
	if isFloat {
		a := math.Float64frombits(x)
		b := math.Float64frombits(y)
		lt, eq = a < b, a == b
	} else {
		a, b := int64(x), int64(y)
		lt, eq = a < b, a == b
	}
	var r bool
	switch pred {
	case ir.CmpEQ:
		r = eq
	case ir.CmpNE:
		r = !eq
	case ir.CmpLT:
		r = lt
	case ir.CmpLE:
		r = lt || eq
	case ir.CmpGT:
		r = !lt && !eq
	case ir.CmpGE:
		r = !lt
	}
	if r {
		return 1
	}
	return 0
}
