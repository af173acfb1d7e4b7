package interp

// The reference interpreter: a plain switch over each instruction, the
// obvious reading of the VIR semantics. It is the oracle the precompiled
// plan dispatcher (plan.go) is tested against — same results, same trace
// event sequence, same error texts at the same step boundaries — and lives
// in a test file because nothing in production runs it. The tests reach it
// through Machine.RunOracle (export_test.go).

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
)

// operand resolves an operand to its raw 64-bit value in the current frame.
func (m *Machine) operand(f *frame, o ir.Operand) uint64 {
	switch o.Kind {
	case ir.KindReg:
		return f.regs[o.Reg]
	case ir.KindConstInt, ir.KindConstFloat:
		return o.Imm
	}
	return 0
}

func (m *Machine) loadMem(addr int64, t ir.ScalarType) (uint64, error) {
	if addr < ir.GlobalBase || !m.reserve(addr+t.Size()) {
		return 0, fmt.Errorf("interp: load from invalid address %#x", addr)
	}
	switch t {
	case ir.F32:
		b := binary.LittleEndian.Uint32(m.mem[addr:])
		return math.Float64bits(float64(math.Float32frombits(b))), nil
	default:
		return binary.LittleEndian.Uint64(m.mem[addr:]), nil
	}
}

func (m *Machine) storeMem(addr int64, t ir.ScalarType, v uint64) error {
	if addr < ir.GlobalBase || !m.reserve(addr+t.Size()) {
		return fmt.Errorf("interp: store to invalid address %#x", addr)
	}
	switch t {
	case ir.F32:
		f := float32(math.Float64frombits(v))
		binary.LittleEndian.PutUint32(m.mem[addr:], math.Float32bits(f))
	default:
		binary.LittleEndian.PutUint64(m.mem[addr:], v)
	}
	return nil
}

// loop is the reference dispatch loop.
func (m *Machine) loop(ctx context.Context) error {
	var blockIdx, instrIdx int32
	f := m.top()
	tracer := m.Cfg.Tracer
	// The recorder is resolved once per run; with observability off the
	// only cost inside the loop is one nil check per ctxCheckInterval
	// steps, amortized to nothing. With a recorder attached, the step and
	// stack-arena gauges update at exactly the existing poll points.
	rec := obs.FromContext(ctx)
	if rec != nil {
		rec.Set(obs.BudgetMaxSteps, m.Cfg.MaxSteps)
	}
	defer func() {
		if rec != nil {
			rec.Max(obs.InterpSteps, m.res.Steps)
			rec.Max(obs.InterpStackBytes, m.stackTop-m.frameBase)
		}
	}()
	for {
		if instrIdx >= int32(len(f.fn.Blocks[blockIdx].Instrs)) {
			return fmt.Errorf("interp: %s: fell off end of block b%d", f.fn.Name, blockIdx)
		}
		in := &f.fn.Blocks[blockIdx].Instrs[instrIdx]

		m.res.Steps++
		if m.res.Steps > m.Cfg.MaxSteps {
			return fmt.Errorf("interp: exceeded %d steps (infinite loop?): %w", m.Cfg.MaxSteps, core.ErrResourceLimit)
		}
		if m.res.Steps%ctxCheckInterval == 0 {
			if err := core.Canceled(ctx); err != nil {
				return fmt.Errorf("interp: after %d steps: %w", m.res.Steps, err)
			}
			if rec != nil {
				rec.Max(obs.InterpSteps, m.res.Steps)
				rec.Max(obs.InterpStackBytes, m.stackTop-m.frameBase)
			}
		}
		// Frame-slot traffic models register pressure a real compiler would
		// eliminate (mem2reg), so loads/stores of stack addresses are
		// charged as cheap bookkeeping rather than cache accesses.
		frameAccess := false
		if in.Op == ir.OpLoad || in.Op == ir.OpStore {
			frameAccess = int64(m.operand(f, in.X)) >= m.frameBase
		}
		c := Cost(in)
		if frameAccess {
			c = 1
		}
		m.res.Cycles += c
		if m.res.LoopCycles != nil {
			cur := -1
			if len(m.loopStack) > 0 {
				cur = int(m.loopStack[len(m.loopStack)-1])
			}
			m.res.LoopCycles[cur] += c
			oc := m.res.LoopOps[cur]
			if oc == nil {
				oc = &OpCounts{}
				m.res.LoopOps[cur] = oc
			}
			if frameAccess {
				oc.Other++
			} else {
				classify(in, oc)
			}
			if in.IsCandidate() {
				m.res.LoopFPOps[cur]++
			}
		}

		traceAddr := NoAddr

		switch in.Op {
		case ir.OpBin:
			x := m.operand(f, in.X)
			y := m.operand(f, in.Y)
			v, err := evalBin(in, x, y)
			if err != nil {
				return fmt.Errorf("%w (at line %d)", err, in.Pos.Line)
			}
			f.regs[in.Dst] = v
			if in.IsCandidate() {
				m.res.FPOps++
			}

		case ir.OpNeg:
			x := m.operand(f, in.X)
			if in.Type.IsFloat() {
				f.regs[in.Dst] = math.Float64bits(-math.Float64frombits(x))
			} else {
				f.regs[in.Dst] = uint64(-int64(x))
			}

		case ir.OpNot:
			x := m.operand(f, in.X)
			if x == 0 {
				f.regs[in.Dst] = 1
			} else {
				f.regs[in.Dst] = 0
			}

		case ir.OpCmp:
			x := m.operand(f, in.X)
			y := m.operand(f, in.Y)
			f.regs[in.Dst] = evalCmp(in, x, y)

		case ir.OpCast:
			f.regs[in.Dst] = evalCast(in, m.operand(f, in.X))

		case ir.OpLoad:
			addr := int64(m.operand(f, in.X))
			v, err := m.loadMem(addr, in.Type)
			if err != nil {
				return fmt.Errorf("%w (at line %d)", err, in.Pos.Line)
			}
			f.regs[in.Dst] = v
			traceAddr = addr

		case ir.OpStore:
			addr := int64(m.operand(f, in.X))
			if err := m.storeMem(addr, in.Type, m.operand(f, in.Y)); err != nil {
				return fmt.Errorf("%w (at line %d)", err, in.Pos.Line)
			}
			traceAddr = addr

		case ir.OpGlobalAddr:
			f.regs[in.Dst] = uint64(m.Mod.Globals[in.Global].Addr)

		case ir.OpFrameAddr:
			f.regs[in.Dst] = uint64(f.base + f.fn.Slots[in.Slot].Offset)

		case ir.OpPtrAdd:
			base := int64(m.operand(f, in.X))
			idx := int64(m.operand(f, in.Y))
			f.regs[in.Dst] = uint64(base + idx*in.Scale + in.Off)

		case ir.OpCall:
			if len(m.frames) >= m.Cfg.MaxDepth {
				return fmt.Errorf("interp: call depth exceeds %d: %w", m.Cfg.MaxDepth, core.ErrResourceLimit)
			}
			callee := m.Mod.Funcs[in.Callee]
			if tracer != nil {
				tracer.Exec(in.ID, NoAddr)
			}
			args := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				args[i] = m.operand(f, a)
			}
			if err := m.pushFrame(callee, in.Dst, blockIdx, instrIdx+1); err != nil {
				return fmt.Errorf("%w (at line %d)", err, in.Pos.Line)
			}
			f = m.top()
			copy(f.regs, args)
			blockIdx, instrIdx = 0, 0
			continue

		case ir.OpIntrinsic:
			x := math.Float64frombits(m.operand(f, in.X))
			f.regs[in.Dst] = math.Float64bits(evalIntrinsic(in.Intr, x))

		case ir.OpPrint:
			v := m.operand(f, in.X)
			if in.Type == ir.I64 {
				m.res.Output = append(m.res.Output, float64(int64(v)))
			} else {
				m.res.Output = append(m.res.Output, math.Float64frombits(v))
			}

		case ir.OpBr:
			if tracer != nil {
				tracer.Exec(in.ID, NoAddr)
			}
			blockIdx, instrIdx = in.Then, 0
			continue

		case ir.OpCondBr:
			if tracer != nil {
				tracer.Exec(in.ID, NoAddr)
			}
			if m.operand(f, in.X) != 0 {
				blockIdx = in.Then
			} else {
				blockIdx = in.Else
			}
			instrIdx = 0
			continue

		case ir.OpRet:
			if tracer != nil {
				tracer.Exec(in.ID, NoAddr)
			}
			// Close loops left open by an early return.
			for f.loopsOpen > 0 {
				m.loopStack = m.loopStack[:len(m.loopStack)-1]
				f.loopsOpen--
			}
			retVal := uint64(0)
			hasVal := in.X.Kind != ir.KindNone
			if hasVal {
				retVal = m.operand(f, in.X)
			}
			m.stackTop = f.base
			retDst, rb, ri := f.retDst, f.retBlock, f.retIndex
			m.frames = m.frames[:len(m.frames)-1]
			if len(m.frames) == 0 {
				return nil
			}
			f = m.top()
			if retDst != ir.RegNone && hasVal {
				f.regs[retDst] = retVal
			}
			blockIdx, instrIdx = rb, ri
			continue

		case ir.OpLoopBegin:
			if m.res.LoopParents != nil {
				if _, seen := m.res.LoopParents[int(in.Loop)]; !seen {
					parent := -1
					if len(m.loopStack) > 0 {
						parent = int(m.loopStack[len(m.loopStack)-1])
					}
					m.res.LoopParents[int(in.Loop)] = parent
				}
				m.res.LoopEntries[int(in.Loop)]++
			}
			m.loopStack = append(m.loopStack, in.Loop)
			f.loopsOpen++

		case ir.OpLoopEnd:
			if f.loopsOpen > 0 {
				m.loopStack = m.loopStack[:len(m.loopStack)-1]
				f.loopsOpen--
			}

		case ir.OpLoopIter:
			// Iteration marker: no effect on machine state.

		default:
			return fmt.Errorf("interp: unknown opcode %s", in.Op)
		}

		if tracer != nil {
			tracer.Exec(in.ID, traceAddr)
		}
		instrIdx++
	}
}

func evalBin(in *ir.Instr, x, y uint64) (uint64, error) {
	if in.Type.IsFloat() {
		a := math.Float64frombits(x)
		b := math.Float64frombits(y)
		var r float64
		switch in.Bin {
		case ir.AddOp:
			r = a + b
		case ir.SubOp:
			r = a - b
		case ir.MulOp:
			r = a * b
		case ir.DivOp:
			r = a / b
		default:
			return 0, fmt.Errorf("interp: %s on float operands", in.Bin)
		}
		if in.Type == ir.F32 {
			r = float64(float32(r))
		}
		return math.Float64bits(r), nil
	}
	a := int64(x)
	b := int64(y)
	switch in.Bin {
	case ir.AddOp:
		return uint64(a + b), nil
	case ir.SubOp:
		return uint64(a - b), nil
	case ir.MulOp:
		return uint64(a * b), nil
	case ir.DivOp:
		if b == 0 {
			return 0, fmt.Errorf("interp: integer division by zero")
		}
		return uint64(a / b), nil
	case ir.RemOp:
		if b == 0 {
			return 0, fmt.Errorf("interp: integer remainder by zero")
		}
		return uint64(a % b), nil
	}
	return 0, fmt.Errorf("interp: unknown binop")
}

func evalCmp(in *ir.Instr, x, y uint64) uint64 {
	var lt, eq bool
	if in.From.IsFloat() {
		a := math.Float64frombits(x)
		b := math.Float64frombits(y)
		lt, eq = a < b, a == b
	} else {
		a, b := int64(x), int64(y)
		lt, eq = a < b, a == b
	}
	var r bool
	switch in.Pred {
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

func evalCast(in *ir.Instr, x uint64) uint64 {
	return castValue(in.From, in.Type, x)
}
