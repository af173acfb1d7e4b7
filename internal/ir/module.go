package ir

import (
	"fmt"
	"math"
)

func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// Block is a basic block: straight-line instructions ended by a terminator.
type Block struct {
	Index  int32
	Instrs []Instr
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// Succs appends the indices of the block's successor blocks to dst.
func (b *Block) Succs(dst []int32) []int32 {
	t := b.Terminator()
	if t == nil {
		return dst
	}
	switch t.Op {
	case OpBr:
		return append(dst, t.Then)
	case OpCondBr:
		return append(dst, t.Then, t.Else)
	}
	return dst
}

// FrameSlot is one addressable local variable in a function frame.
type FrameSlot struct {
	Name   string
	Size   int64
	Align  int64
	Offset int64 // byte offset within the frame, assigned by layoutFrame
}

// Function is one VIR function.
type Function struct {
	Name  string
	Index int32

	// NumParams parameters arrive in registers 0..NumParams-1.
	NumParams int
	// ParamNames are the source-level parameter names, for diagnostics.
	ParamNames []string

	NumRegs int
	Blocks  []*Block

	Slots     []FrameSlot
	FrameSize int64

	// HasResult is false for void functions; Result is the result type
	// otherwise.
	HasResult bool
	Result    ScalarType
}

// NewBlock appends a fresh empty block and returns it.
func (f *Function) NewBlock() *Block {
	b := &Block{Index: int32(len(f.Blocks))}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// AddSlot appends a frame slot and returns its index. Offsets are assigned
// by layoutFrame during Module.Finalize.
func (f *Function) AddSlot(name string, size, align int64) int32 {
	f.Slots = append(f.Slots, FrameSlot{Name: name, Size: size, Align: align})
	return int32(len(f.Slots) - 1)
}

func (f *Function) layoutFrame() {
	var off int64
	for i := range f.Slots {
		a := f.Slots[i].Align
		if a < 1 {
			a = 1
		}
		off = (off + a - 1) / a * a
		f.Slots[i].Offset = off
		off += f.Slots[i].Size
	}
	// Keep frames 16-byte aligned, C-style.
	f.FrameSize = (off + 15) / 16 * 16
}

// NumInstrs returns the function's static instruction count.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// GlobalVar is one module global with its assigned absolute address.
type GlobalVar struct {
	Name  string
	Size  int64
	Align int64
	// Addr is the global's absolute address in the interpreter's flat
	// address space, assigned by Module.Finalize.
	Addr int64
	// Init holds the raw little-endian initial bytes, or nil for
	// zero-initialized globals.
	Init []byte
}

// LoopMeta describes one source loop for reporting: the paper's tables key
// rows by "file : line".
type LoopMeta struct {
	ID     int
	Line   int
	Func   string
	Parent int // enclosing loop ID, or -1
	Depth  int // 0 for outermost
}

// InstrRef locates a static instruction inside its module.
type InstrRef struct {
	Func  int32
	Block int32
	Index int32
}

// GlobalBase is the address where module globals start in the flat address
// space; the interpreter places stacks above all globals.
const GlobalBase int64 = 0x10000

// Module is a compiled MiniC translation unit.
type Module struct {
	Name    string
	SrcFile string

	Globals []GlobalVar
	Funcs   []*Function
	Loops   []LoopMeta

	funcByName map[string]*Function

	// NumInstrs is the total number of static instructions; IDs are
	// 0..NumInstrs-1 after Finalize.
	NumInstrs int
	refs      []InstrRef
	// ops and loops copy each instruction's Op and Loop into flat arrays,
	// for per-event paths that need nothing else.
	ops   []Opcode
	loops []int32
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Function {
	return m.funcByName[name]
}

// AddFunc appends f to the module and assigns its index.
func (m *Module) AddFunc(f *Function) {
	f.Index = int32(len(m.Funcs))
	m.Funcs = append(m.Funcs, f)
}

// Finalize assigns static instruction IDs (in function/block/instruction
// order), global addresses, and frame layouts. It must be called once after
// construction and before execution or analysis.
func (m *Module) Finalize() {
	m.funcByName = make(map[string]*Function, len(m.Funcs))
	id := int32(0)
	m.refs = m.refs[:0]
	m.ops = m.ops[:0]
	m.loops = m.loops[:0]
	for _, f := range m.Funcs {
		m.funcByName[f.Name] = f
		f.layoutFrame()
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				b.Instrs[i].ID = id
				m.refs = append(m.refs, InstrRef{Func: f.Index, Block: b.Index, Index: int32(i)})
				m.ops = append(m.ops, b.Instrs[i].Op)
				m.loops = append(m.loops, b.Instrs[i].Loop)
				id++
			}
		}
	}
	m.NumInstrs = int(id)

	addr := GlobalBase
	for i := range m.Globals {
		a := m.Globals[i].Align
		if a < 1 {
			a = 1
		}
		addr = (addr + a - 1) / a * a
		m.Globals[i].Addr = addr
		addr += m.Globals[i].Size
	}
}

// GlobalsEnd returns the first address past all globals.
func (m *Module) GlobalsEnd() int64 {
	if len(m.Globals) == 0 {
		return GlobalBase
	}
	g := &m.Globals[len(m.Globals)-1]
	return g.Addr + g.Size
}

// InstrAt returns the static instruction with the given ID.
func (m *Module) InstrAt(id int32) *Instr {
	r := m.refs[id]
	return &m.Funcs[r.Func].Blocks[r.Block].Instrs[r.Index]
}

// OpOf returns the opcode of the instruction with the given ID: one load
// from a flat array, where InstrAt is a chain of four dependent loads.
func (m *Module) OpOf(id int32) Opcode { return m.ops[id] }

// LoopOf returns the innermost enclosing source loop ID of the instruction
// with the given ID (its Loop field), from a flat array like OpOf.
func (m *Module) LoopOf(id int32) int32 { return m.loops[id] }

// FuncOfInstr returns the function containing the instruction with the given
// ID.
func (m *Module) FuncOfInstr(id int32) *Function {
	return m.Funcs[m.refs[id].Func]
}

// LoopByID returns metadata for the given source loop ID, or nil.
func (m *Module) LoopByID(id int) *LoopMeta {
	for i := range m.Loops {
		if m.Loops[i].ID == id {
			return &m.Loops[i]
		}
	}
	return nil
}

// LoopByLine returns the loop declared on the given source line, or nil.
func (m *Module) LoopByLine(line int) *LoopMeta {
	for i := range m.Loops {
		if m.Loops[i].Line == line {
			return &m.Loops[i]
		}
	}
	return nil
}

// LoopChildren returns the IDs of loops immediately nested in loop id.
func (m *Module) LoopChildren(id int) []int {
	var out []int
	for i := range m.Loops {
		if m.Loops[i].Parent == id {
			out = append(out, m.Loops[i].ID)
		}
	}
	return out
}

// CandidateIDs returns the IDs of all candidate (floating-point arithmetic)
// static instructions, optionally restricted to one source loop (pass -1 for
// the whole module). Instructions in loops nested inside the given loop are
// included.
func (m *Module) CandidateIDs(loopID int) []int32 {
	inLoop := m.loopMembership(loopID)
	var out []int32
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.IsCandidate() && (loopID < 0 || inLoop[in.Loop]) {
					out = append(out, in.ID)
				}
			}
		}
	}
	return out
}

// loopMembership returns the set of loop IDs equal to or nested within root.
func (m *Module) loopMembership(root int) map[int32]bool {
	if root < 0 {
		return nil
	}
	set := map[int32]bool{int32(root): true}
	for changed := true; changed; {
		changed = false
		for i := range m.Loops {
			l := &m.Loops[i]
			if !set[int32(l.ID)] && l.Parent >= 0 && set[int32(l.Parent)] {
				set[int32(l.ID)] = true
				changed = true
			}
		}
	}
	return set
}

// Validate performs cheap structural sanity checks and panics on violation.
// The full Verify pass lives in verify.go; Validate is for internal
// invariants that indicate a compiler bug rather than a user error.
func (m *Module) Validate() {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 {
				panic(fmt.Sprintf("ir: %s: empty block b%d", f.Name, b.Index))
			}
		}
	}
}
