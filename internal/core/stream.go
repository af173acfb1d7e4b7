package core

// The one-pass stream kernel: Algorithm 1 evaluated directly over the
// region's event stream, without materializing a ddg.Graph first.
//
// The paper's timestamp recurrence needs only, at each dynamic event, the
// timestamps of that event's flow predecessors. The materialized builder
// resolves those predecessors through last-writer state it carries anyway
// (a register→producer table per frame and a last-store map per address);
// this kernel carries the same tables but stores, per producer, a
// *timestamp row* — one int32 per active candidate column — instead of a
// node index into an O(events) graph. Peak memory is therefore
// O(live values × active candidates + candidate instances), independent of
// the region's event count:
//
//   - register file: one row per live register per open frame;
//   - shadow memory: one row per address with a live last store (plus, under
//     IncludeAntiOutput, one running-max row over the readers since it);
//   - per candidate column: the per-instance timestamp/tuple arrays the
//     partitioning and stride stages consume.
//
// Columns are assigned lazily, in order of first dynamic appearance, and
// rows are extended lazily: a row narrower than the column count reads as
// zero in the columns it lacks, which is exact — a value produced before a
// candidate's first instance has timestamp 0 for that candidate. Rows are
// therefore only as wide as their widest predecessor (see rowMaxInto).
//
// Options.RelaxReductions takes two passes over the same events, because
// one causal pass cannot decide whether to cut an instance's accumulator
// edge: the ≥50% reduction rule is region-wide, and for the s += expr round
// trip the deciding address is the one the instance stores to later. Under
// relaxation Feed therefore also buffers the region's events. Pass 1 is
// the ordinary sweep, which records per instance which operand carried the
// accumulator; Finish then replays the buffer once with those operands cut
// from each reduction column's own timestamps (see planCuts).
//
// This is the only production Algorithm-1 engine. Equivalence with the
// paper-literal graph reference, ddg.BuildOpts + AnalyzeCtx, is enforced by
// differential tests (stream_test.go and the pipeline suites).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// Nominal live-byte costs of the kernel's unit allocations, used for the
// Budget.MaxAnalysisBytes accounting. Charges follow logical events
// (checkout, instance, frame push), never physical allocation, so whether a
// buffer came from a freelist cannot move the failure point: a budgeted run
// fails at the same event every time.
const (
	streamValBytes      = 56 // one register-file slot descriptor
	streamCellBytes     = 96 // one shadow-memory cell + map entry
	streamInstanceBytes = 48 // one candidate instance (timestamp + tuple + flags)
	streamEventBytes    = 16 // one buffered event (RelaxReductions replay)
)

// streamVal describes the producer of a live value: its timestamp row, the
// producing static instruction, and the provenance the downstream stages
// need (candidate column/instance for store patching, load address and the
// load's producing store for operand tuples and reduction round trips).
// Copies of the descriptor travel through call arguments and return values
// exactly as the materialized builder propagates producer node indices.
type streamVal struct {
	row         []int32
	seq         int64 // the producing event's position: the graph node identity
	instr       int32 // producing static instruction, -1 when unwritten
	cand        int32 // candidate column of the producer, -1
	inst        int32 // instance index within the column (when cand >= 0)
	storedInstr int32 // for loads: the producing store's value instr, -1
	loadAddr    int64 // for loads: the accessed address
	isLoad      bool
}

// streamFrame is one call-stack entry of the replay: the register file of
// producer descriptors, mirroring ddg's frame of producer node indices.
type streamFrame struct {
	fn        *ir.Function
	callerDst ir.Reg
	regs      []streamVal
}

// candCol is one active candidate column: the per-instance parallel arrays
// Algorithm 1's downstream stages consume, built online.
type candCol struct {
	id   int32
	elig bool // reductionEligible: FP add/sub/mul
	// accum counts instances with an accumulator-carried predecessor
	// (register chain or store/load round trip), detected online.
	accum  int
	instTS []int32
	// carry (eligible columns only) holds per-instance operand flags: the
	// operand's producer is an earlier instance of the column (carryX,
	// carryY), or a load of a value an instance of the column stored
	// (tripX, tripY) — a round trip if the instance's own first store hits
	// that load's address, which is the operand's tup entry.
	carry []uint8
	// tup holds each instance's memory tuple; tup[k][0] stays ddg.NoAddr
	// until the instance's first store patches it (finishCand maps what is
	// left to the paper's artificial address 0).
	tup [][3]int64
}

// Operand flags of candCol.carry. carryX and carryY double as the cut
// codes of a relaxation plan.
const (
	carryX = 1 << iota
	carryY
	tripX
	tripY
)

// carries reports whether instance i's operand op (0 = X, 1 = Y) carries
// the accumulator: register-carried, or loaded from the address the
// instance's value is first stored to (detectReductionInst's carriesAccum).
func (ca *candCol) carries(i, op int) bool {
	f, sa := ca.carry[i]>>op, ca.tup[i][0]
	return f&carryX != 0 || f&tripX != 0 && sa != ddg.NoAddr && sa != 0 && ca.tup[i][1+op] == sa
}

// isReduction applies the ≥50% rule of detectReductionInst to the column's
// online counts.
func (ca *candCol) isReduction() bool {
	n := len(ca.instTS)
	return ca.elig && n >= 3 && float64(ca.accum)/float64(n-1) >= 0.5
}

// shadowCell is the last-writer state of one memory address: the last
// store's timestamp row and value provenance, plus (under IncludeAntiOutput)
// a running elementwise max over the rows of readers since that store and
// their count — enough to reproduce the reference's anti/output edges without
// keeping the reader nodes.
type shadowCell struct {
	row      []int32
	readers  []int32
	valInstr int32
	nReaders int32
	hasStore bool
}

// The paged shadow memory: address → cell resolution through a two-level
// page table instead of a Go map. Level one is a flat page directory
// indexed by addr >> shadowPageShift; level two is a pointer-free slot
// array of (epoch, ref) pairs, where ref-1 indexes the kernel's cells
// slice. A slot is live only when its epoch matches the kernel's current
// region epoch, so resetting the entire shadow between regions is one
// epoch increment — no per-slot clearing — and pages are recycled across
// regions through the directory itself plus a freelist. Addresses outside
// the directory's span (negative, or beyond maxShadowPages pages) fall
// back to an overflow map. Tests can route every address through the map
// (mapShadow) to check the paged table against it.
const (
	shadowPageShift = 10 // 1 KiB of address space per page
	shadowPageSpan  = 1 << shadowPageShift
	shadowPageMask  = shadowPageSpan - 1
	maxShadowPages  = 1 << 16 // directory cap: 64 MiB of address space
)

// shadowSlot is one address's entry in a shadow page: the region epoch the
// entry belongs to and the 1-based index of its cell (0 = empty).
type shadowSlot struct {
	epoch uint32
	ref   uint32
}

// shadowPage is one fixed-span slot array. The header epoch marks the most
// recent region that touched the page, driving the shadow_pages_touched
// counter at page granularity.
type shadowPage struct {
	epoch uint32
	slots [shadowPageSpan]shadowSlot
}

// streamInstr is the part of one static instruction Feed reads for every
// opcode but call and ret, copied into a flat per-instruction table when the
// kernel's module changes: one indexed load per event instead of InstrAt's
// four dependent ones.
type streamInstr struct {
	fn   *ir.Function
	x, y ir.Operand
	dst  ir.Reg
	op   ir.Opcode
	cand bool // a candidate under the kernel's policy
}

// StreamKernel runs the one-pass analysis of a single region: feed
// the region's events in trace order, then Finish. Kernels are checked out
// of a pool (AcquireStreamKernel / Release) so successive regions reuse the
// last-writer tables, shadow maps, instance arrays, and stride scratch.
//
// A kernel is single-goroutine; concurrency comes from analyzing different
// regions on different kernels.
type StreamKernel struct {
	mod   *ir.Module
	dopts ddg.Options
	opts  Options
	rec   *obs.Recorder

	// Candidate policy cache, rebuilt when the module or the candidate set
	// changes: instrs is the flat instruction table, colOf maps static
	// instruction → active column (-1 when the instruction has no instances
	// yet this region), kmax bounds the width.
	pmod     *ir.Module
	pints    bool
	instrs   []streamInstr
	colOf    []int32
	kmax     int
	rowBytes int64

	cands  []candCol
	frames []streamFrame
	// shadow is the out-of-directory overflow map, or the whole shadow
	// when mapShadow is set (only tests set it, via export_test.go).
	shadow    map[int64]*shadowCell
	mapShadow bool
	// The paged shadow: directory, per-region touch list, recycled pages,
	// and the current region epoch (always ≥ 1; 0 marks dead slots).
	pageDir   []*shadowPage
	pageFree  []*shadowPage
	touched   []int32
	epoch     uint32
	cells     []*shadowCell
	cellFree  []*shadowCell
	rowFree   [][]int32
	preds     [][]int32
	args      []streamVal
	pair      [2][]int32
	branch    []int32
	branchSet bool
	iota      []int32
	order     []int32
	fin       instrScratch
	stride    strideScratch

	// RelaxReductions state: the region's buffered events, and during the
	// replay the per-column cut plan (nil entry: column not relaxed).
	replay  []trace.Event
	cutPlan [][]uint8

	n         int64 // events fed
	edges     int64 // dependence edges the materialized graph would hold
	live      int64 // current nominal working set, for Budget accounting
	peak      int64
	peakAddrs int
	err       error
	used      bool
}

// streamKernelPool recycles kernels across regions, workers, and runs.
var streamKernelPool = sync.Pool{New: func() any { return new(StreamKernel) }}

// AcquireStreamKernel checks a one-pass kernel out of the pool, configured
// for one region of a trace of mod under the given graph and analysis
// options. A non-nil recorder tallies the checkout as a pool hit (recycled
// tables) or miss (fresh allocation). Callers must Release the kernel.
func AcquireStreamKernel(mod *ir.Module, dopts ddg.Options, opts Options, rec *obs.Recorder) *StreamKernel {
	k := streamKernelPool.Get().(*StreamKernel)
	if rec != nil {
		if k.used {
			rec.Add(obs.StreamPoolHits, 1)
		} else {
			rec.Add(obs.StreamPoolMisses, 1)
		}
	}
	k.used = true
	k.mod = mod
	k.dopts = dopts
	k.opts = opts
	k.rec = rec
	if k.pmod != mod || k.pints != dopts.CharacterizeInts {
		k.pmod = mod
		k.pints = dopts.CharacterizeInts
		if cap(k.colOf) < mod.NumInstrs {
			k.colOf = make([]int32, mod.NumInstrs)
		}
		k.colOf = k.colOf[:mod.NumInstrs]
		k.instrs = k.instrs[:0]
		kmax := 0
		for id := 0; id < mod.NumInstrs; id++ {
			k.colOf[id] = -1
			in := mod.InstrAt(int32(id))
			cand := in.IsCandidate() || (dopts.CharacterizeInts && in.IsIntCandidate())
			if cand {
				kmax++
			}
			k.instrs = append(k.instrs, streamInstr{fn: mod.FuncOfInstr(int32(id)), x: in.X, y: in.Y,
				dst: in.Dst, op: in.Op, cand: cand})
		}
		k.kmax = kmax
	}
	k.rowBytes = int64(4*k.kmax + 24)
	if k.shadow == nil {
		k.shadow = make(map[int64]*shadowCell, 64)
	}
	if k.epoch == 0 {
		k.epoch = 1 // zeroed slots must never match a live epoch
	}
	return k
}

// Release resets the kernel's per-region state into its freelists and
// returns it to the pool. Safe after an error or a partial feed.
func (k *StreamKernel) Release() {
	k.reset()
	k.replay = nil
	k.cutPlan = nil
	k.mapShadow = false
	k.rec = nil
	streamKernelPool.Put(k)
}

// reset returns the per-region replay state — frames, columns, shadow,
// counters, the latched error — to its freelists, ready for a new pass.
func (k *StreamKernel) reset() {
	for len(k.frames) > 0 {
		k.popFrame()
	}
	for i := range k.cands {
		k.colOf[k.cands[i].id] = -1
	}
	k.cands = k.cands[:0]
	for _, c := range k.cells {
		if c.row != nil {
			k.rowFree = append(k.rowFree, c.row)
			c.row = nil
		}
		if c.readers != nil {
			k.rowFree = append(k.rowFree, c.readers)
			c.readers = nil
		}
	}
	k.cellFree = append(k.cellFree, k.cells...)
	k.cells = k.cells[:0]
	clear(k.shadow)
	// Retire the region's paged-shadow entries wholesale: one epoch bump
	// invalidates every live slot, making reset O(1) regardless of how many
	// pages the region touched. Pages themselves stay hooked in the
	// directory for the next region. On the (astronomically rare) epoch
	// wrap, every retained page is scrubbed so stale epochs cannot collide.
	k.touched = k.touched[:0]
	k.epoch++
	if k.epoch == 0 {
		for _, pg := range k.pageDir {
			if pg != nil {
				*pg = shadowPage{}
			}
		}
		for _, pg := range k.pageFree {
			*pg = shadowPage{}
		}
		k.epoch = 1
	}
	if k.branch != nil {
		k.rowFree = append(k.rowFree, k.branch)
		k.branch = nil
	}
	k.branchSet = false
	k.preds = k.preds[:0]
	k.args = k.args[:0]
	k.pair[0], k.pair[1] = nil, nil
	k.n, k.edges = 0, 0
	k.live, k.peak = 0, 0
	k.peakAddrs = 0
	k.err = nil
}

// PeakLiveBytes returns the high-water mark of the kernel's nominal working
// set so far — the quantity Budget.MaxAnalysisBytes bounds.
func (k *StreamKernel) PeakLiveBytes() int64 { return k.peak }

// PeakLiveAddresses returns the high-water mark of distinct addresses live
// in the shadow-memory table so far.
func (k *StreamKernel) PeakLiveAddresses() int { return k.peakAddrs }

// charge adds b nominal bytes to the live working set, latching an
// ErrResourceLimit-wrapped error when a configured budget is exceeded. The
// region degrades; the kernel stops consuming events.
func (k *StreamKernel) charge(b int64) {
	k.live += b
	if k.live > k.peak {
		k.peak = k.live
	}
	if m := k.opts.Budget.MaxAnalysisBytes; m > 0 && k.live > m && k.err == nil {
		k.err = fmt.Errorf("core: one-pass analysis working set %d bytes exceeds budget %d at event %d: %w",
			k.live, m, k.n, ErrResourceLimit)
	}
}

func (k *StreamKernel) credit(b int64) { k.live -= b }

// newRow checks a timestamp row (capacity kmax, logical length 0) out of
// the freelist. Rows are never zeroed: rowMaxInto overwrites every column
// it exposes.
func (k *StreamKernel) newRow() []int32 {
	k.charge(k.rowBytes)
	for n := len(k.rowFree); n > 0; n = len(k.rowFree) {
		r := k.rowFree[n-1]
		k.rowFree[n-1] = nil
		k.rowFree = k.rowFree[:n-1]
		if cap(r) >= k.kmax {
			return r[:0]
		}
	}
	return make([]int32, 0, k.kmax)
}

func (k *StreamKernel) freeRow(r []int32) {
	if r == nil {
		return
	}
	k.rowFree = append(k.rowFree, r)
	k.credit(k.rowBytes)
}

// rowMaxInto fills dst with the elementwise maximum of rows and returns it
// at the width of the widest source row, capped at w. Missing columns read
// as zero (the lazy-width invariant), so a result narrower than w is exact,
// and a value no candidate reaches keeps an empty row. dst may alias any
// source row: every column is read from all sources before it is written.
func rowMaxInto(dst []int32, w int, rows [][]int32) []int32 {
	switch len(rows) {
	case 0:
		return dst[:0]
	case 1:
		r := rows[0]
		n := min(len(r), w)
		dst = dst[:n]
		copy(dst, r[:n])
		return dst
	case 2:
		a, b := rows[0], rows[1]
		if len(a) < len(b) {
			a, b = b, a
		}
		n := min(len(a), w)
		dst = dst[:n]
		m := min(len(b), n)
		for c := 0; c < m; c++ {
			dst[c] = max(a[c], b[c])
		}
		copy(dst[m:], a[m:n])
		return dst
	}
	n := 0
	for _, r := range rows {
		n = max(n, len(r))
	}
	n = min(n, w)
	dst = dst[:n]
	for c := 0; c < n; c++ {
		var m int32
		for _, r := range rows {
			if c < len(r) && r[c] > m {
				m = r[c]
			}
		}
		dst[c] = m
	}
	return dst
}

// extendRow zero-fills row out to column col, so the candidate whose column
// it is can write its own timestamp there.
func extendRow(row []int32, col int32) []int32 {
	if n := len(row); int(col) >= n {
		row = row[:col+1]
		clear(row[n:])
	}
	return row
}

// val resolves an operand to its live producer descriptor, mirroring the
// materialized builder's producer(): nil for constants, out-of-range
// registers, and unwritten registers.
func (k *StreamKernel) val(f *streamFrame, o ir.Operand) *streamVal {
	if o.Kind != ir.KindReg || int(o.Reg) >= len(f.regs) {
		return nil
	}
	v := &f.regs[o.Reg]
	if v.instr < 0 {
		return nil
	}
	return v
}

// provAddr returns the operand's provenance address for the stride tuple:
// the defining load's address, or the artificial 0.
func provAddr(v *streamVal, o ir.Operand) int64 {
	if o.IsConst() {
		return 0
	}
	if v != nil && v.isLoad {
		return v.loadAddr
	}
	return 0
}

// stageControl stages the control edge from the most recent conditional
// branch, exactly where the materialized builder's flush would append it.
func (k *StreamKernel) stageControl() {
	if k.dopts.IncludeControl && k.branchSet {
		k.preds = append(k.preds, k.branch)
		k.edges++
	}
}

func (k *StreamKernel) pushFrame(fn *ir.Function, callerDst ir.Reg) *streamFrame {
	if len(k.frames) < cap(k.frames) {
		k.frames = k.frames[:len(k.frames)+1]
	} else {
		k.frames = append(k.frames, streamFrame{})
	}
	nf := &k.frames[len(k.frames)-1]
	nf.fn = fn
	nf.callerDst = callerDst
	if cap(nf.regs) < fn.NumRegs {
		nf.regs = make([]streamVal, fn.NumRegs)
	}
	nf.regs = nf.regs[:fn.NumRegs]
	for i := range nf.regs {
		r := nf.regs[i].row
		nf.regs[i] = streamVal{row: r, instr: -1, cand: -1, storedInstr: -1}
	}
	k.charge(streamValBytes * int64(fn.NumRegs))
	return nf
}

func (k *StreamKernel) popFrame() {
	f := &k.frames[len(k.frames)-1]
	for i := range f.regs {
		if r := f.regs[i].row; r != nil {
			k.freeRow(r)
			f.regs[i].row = nil
		}
	}
	k.credit(streamValBytes * int64(len(f.regs)))
	k.frames = k.frames[:len(k.frames)-1]
}

// cellAt resolves an address to its live shadow cell, or nil. The paged
// path is two array indexes and an epoch compare; only out-of-directory
// addresses (and a test's mapShadow kernel) consult the map.
func (k *StreamKernel) cellAt(addr int64) *shadowCell {
	if k.mapShadow {
		return k.shadow[addr]
	}
	pi := addr >> shadowPageShift
	if uint64(pi) >= maxShadowPages {
		return k.shadow[addr] // negative or beyond the directory span
	}
	if int(pi) >= len(k.pageDir) {
		return nil
	}
	pg := k.pageDir[pi]
	if pg == nil {
		return nil
	}
	s := pg.slots[addr&shadowPageMask]
	if s.epoch != k.epoch || s.ref == 0 {
		return nil
	}
	return k.cells[s.ref-1]
}

// newCell creates (or recycles) the shadow cell for a previously unseen
// address and hooks it into the paged table or the map. The budget charge
// and the live-address peak are identical on both paths — one
// streamCellBytes charge per distinct address per region — so a budgeted
// run fails at the same event regardless of the shadow representation.
func (k *StreamKernel) newCell(addr int64) *shadowCell {
	var c *shadowCell
	if n := len(k.cellFree); n > 0 {
		c = k.cellFree[n-1]
		k.cellFree[n-1] = nil
		k.cellFree = k.cellFree[:n-1]
		c.valInstr = -1
		c.nReaders = 0
		c.hasStore = false
	} else {
		c = &shadowCell{valInstr: -1}
	}
	k.cells = append(k.cells, c)
	if pi := addr >> shadowPageShift; !k.mapShadow && uint64(pi) < maxShadowPages {
		for int(pi) >= len(k.pageDir) {
			k.pageDir = append(k.pageDir, nil)
		}
		pg := k.pageDir[pi]
		if pg == nil {
			if n := len(k.pageFree); n > 0 {
				pg = k.pageFree[n-1]
				k.pageFree[n-1] = nil
				k.pageFree = k.pageFree[:n-1]
			} else {
				pg = new(shadowPage)
			}
			k.pageDir[pi] = pg
		}
		if pg.epoch != k.epoch {
			pg.epoch = k.epoch
			k.touched = append(k.touched, int32(pi))
		}
		pg.slots[addr&shadowPageMask] = shadowSlot{epoch: k.epoch, ref: uint32(len(k.cells))}
	} else {
		k.shadow[addr] = c
	}
	k.charge(streamCellBytes)
	// len(cells) is the count of distinct addresses seen this region on
	// either path, preserving shadow_peak_live_addresses semantics exactly.
	if n := len(k.cells); n > k.peakAddrs {
		k.peakAddrs = n
	}
	return c
}

// colFor returns the active column of candidate id, assigning the next
// column on first appearance. Assigning before the instance's row is
// computed means the new column is inside the current width, where every
// predecessor zero-extends — exactly timestamp 0, the pre-first-instance
// value.
func (k *StreamKernel) colFor(id int32) int32 {
	if c := k.colOf[id]; c >= 0 {
		return c
	}
	in := k.mod.InstrAt(id)
	c := int32(len(k.cands))
	k.colOf[id] = c
	if len(k.cands) < cap(k.cands) {
		k.cands = k.cands[:c+1]
		ca := &k.cands[c]
		ca.id = id
		ca.elig = reductionEligible(in)
		ca.accum = 0
		ca.instTS = ca.instTS[:0]
		ca.carry = ca.carry[:0]
		ca.tup = ca.tup[:0]
	} else {
		k.cands = append(k.cands, candCol{id: id, elig: reductionEligible(in)})
	}
	return c
}

// Feed consumes one trace event in trace order. It mirrors the
// materialized builder's replay case by case; errors (frame mismatch,
// budget exceeded) latch — subsequent calls return the same error and the
// kernel stops consuming. Under RelaxReductions the first pass also
// buffers the event for Finish's replay (the replay runs with a cut plan).
func (k *StreamKernel) Feed(id int32, addr int64) error {
	if k.err != nil {
		return k.err
	}
	if k.opts.RelaxReductions && k.cutPlan == nil {
		k.replay = append(k.replay, trace.Event{ID: id, Addr: addr})
		k.charge(streamEventBytes)
	}
	in := &k.instrs[id]
	if len(k.frames) == 0 {
		k.pushFrame(in.fn, ir.RegNone)
	}
	f := &k.frames[len(k.frames)-1]
	if f.fn != in.fn {
		// A region sliced mid-call or a malformed trace.
		k.err = fmt.Errorf("core: event %d (instr %d in %s) does not match current frame %s",
			k.n, id, in.fn.Name, f.fn.Name)
		return k.err
	}
	k.preds = k.preds[:0]

	switch in.op {
	case ir.OpLoad:
		px := k.val(f, in.x)
		if px != nil {
			k.preds = append(k.preds, px.row)
			k.edges++
		}
		cell := k.cellAt(addr)
		var storedInstr int32 = -1
		if cell != nil && cell.hasStore {
			k.preds = append(k.preds, cell.row)
			k.edges++
			storedInstr = cell.valInstr
		}
		k.stageControl()
		w := len(k.cands)
		dst := &f.regs[in.dst]
		buf := dst.row
		if buf == nil {
			buf = k.newRow()
		}
		row := rowMaxInto(buf, w, k.preds)
		*dst = streamVal{row: row, seq: k.n, instr: id, cand: -1, storedInstr: storedInstr, loadAddr: addr, isLoad: true}
		if k.dopts.IncludeAntiOutput {
			if cell == nil {
				cell = k.newCell(addr)
			}
			if cell.readers == nil {
				cell.readers = k.newRow()
			}
			k.pair[0], k.pair[1] = cell.readers, row
			cell.readers = rowMaxInto(cell.readers, w, k.pair[:])
			cell.nReaders++
		}

	case ir.OpStore:
		px := k.val(f, in.x)
		pv := k.val(f, in.y)
		if px != nil {
			k.preds = append(k.preds, px.row)
			k.edges++
		}
		if pv != nil {
			k.preds = append(k.preds, pv.row)
			k.edges++
		}
		cell := k.cellAt(addr)
		if k.dopts.IncludeAntiOutput && cell != nil {
			if cell.hasStore {
				k.preds = append(k.preds, cell.row) // output dependence
				k.edges++
			}
			if cell.nReaders > 0 {
				k.preds = append(k.preds, cell.readers) // anti dependences
				k.edges += int64(cell.nReaders)
			}
		}
		k.stageControl()
		// First store of a candidate instance's value defines its memory
		// tuple slot and resolves any pending reduction round trip.
		if pv != nil && pv.cand >= 0 {
			ca := &k.cands[pv.cand]
			if i := int(pv.inst); ca.tup[i][0] == ddg.NoAddr {
				ca.tup[i][0] = addr
				if ca.elig && ca.carry[i]&(carryX|carryY) == 0 && (ca.carries(i, 0) || ca.carries(i, 1)) {
					ca.accum++
				}
			}
		}
		w := len(k.cands)
		if cell == nil {
			cell = k.newCell(addr)
		}
		buf := cell.row
		if buf == nil {
			buf = k.newRow()
		}
		cell.row = rowMaxInto(buf, w, k.preds)
		cell.hasStore = true
		cell.valInstr = -1
		if pv != nil {
			cell.valInstr = pv.instr
		}
		if cell.nReaders > 0 {
			cell.readers = cell.readers[:0]
			cell.nReaders = 0
		}

	case ir.OpCall:
		in := k.mod.InstrAt(id)
		callee := k.mod.Funcs[in.Callee]
		// Descriptor copies are collected before pushFrame: the append may
		// move the frame structs, invalidating f and any operand pointers
		// (the row buffers they reference are heap objects and stay valid).
		k.args = k.args[:0]
		for _, a := range in.Args {
			if v := k.val(f, a); v != nil {
				k.args = append(k.args, *v)
				k.edges++
			} else {
				k.args = append(k.args, streamVal{instr: -1, cand: -1, storedInstr: -1})
			}
		}
		if k.dopts.IncludeControl && k.branchSet {
			k.edges++ // the call node's control edge
		}
		// The call node's own row is never consumed (the callee receives
		// the argument producers, the caller the return producer), so it is
		// not computed; its edges are still counted above.
		nf := k.pushFrame(callee, in.Dst)
		m := min(len(k.args), len(nf.regs))
		for i := 0; i < m; i++ {
			av := &k.args[i]
			if av.instr < 0 {
				continue
			}
			dst := &nf.regs[i]
			buf := dst.row
			if buf == nil {
				buf = k.newRow()
			}
			buf = buf[:len(av.row)]
			copy(buf, av.row)
			*dst = streamVal{row: buf, seq: av.seq, instr: av.instr, cand: av.cand, inst: av.inst,
				storedInstr: av.storedInstr, loadAddr: av.loadAddr, isLoad: av.isLoad}
		}

	case ir.OpRet:
		in := k.mod.InstrAt(id)
		rp := streamVal{instr: -1, cand: -1, storedInstr: -1}
		if in.X.Kind == ir.KindReg {
			if v := k.val(f, in.X); v != nil {
				rp = *v
				k.edges++
			}
		}
		if k.dopts.IncludeControl && k.branchSet {
			k.edges++ // the ret node's control edge
		}
		callerDst := f.callerDst
		// The return value's row is copied into the caller's slot before
		// popFrame releases the dying frame's buffers.
		if len(k.frames) > 1 && callerDst != ir.RegNone {
			cf := &k.frames[len(k.frames)-2]
			dst := &cf.regs[callerDst]
			if rp.instr >= 0 {
				buf := dst.row
				if buf == nil {
					buf = k.newRow()
				}
				buf = buf[:len(rp.row)]
				copy(buf, rp.row)
				*dst = streamVal{row: buf, seq: rp.seq, instr: rp.instr, cand: rp.cand, inst: rp.inst,
					storedInstr: rp.storedInstr, loadAddr: rp.loadAddr, isLoad: rp.isLoad}
			} else {
				// The reference clears the caller's register on a
				// producer-less return.
				r := dst.row
				*dst = streamVal{row: r, instr: -1, cand: -1, storedInstr: -1}
			}
		}
		k.popFrame()

	default:
		px := k.val(f, in.x)
		py := k.val(f, in.y)
		if px != nil {
			k.preds = append(k.preds, px.row)
			k.edges++
		}
		if py != nil {
			k.preds = append(k.preds, py.row)
			k.edges++
		}
		k.stageControl()
		isBranch := k.dopts.IncludeControl && in.op == ir.OpCondBr
		var col int32 = -1
		if in.cand {
			col = k.colFor(id)
		}
		w := len(k.cands)
		// On the relaxation replay, a reduction instance's own column
		// takes the maximum without its accumulator operand, read before
		// rowMaxInto may overwrite a source row in place.
		relaxed := int32(-1)
		if col >= 0 && k.cutPlan != nil {
			if plan := k.cutPlan[col]; plan != nil {
				switch plan[len(k.cands[col].instTS)] {
				case carryX:
					relaxed = k.maxWithout(col, px, px, py)
				case carryY:
					relaxed = k.maxWithout(col, py, px, py)
				}
			}
		}
		var row []int32
		transient := false
		if in.dst != ir.RegNone || isBranch || col >= 0 {
			var buf []int32
			switch {
			case in.dst != ir.RegNone:
				buf = f.regs[in.dst].row
			case isBranch:
				buf = k.branch
			default:
				transient = true
			}
			if buf == nil {
				buf = k.newRow()
			}
			row = rowMaxInto(buf, w, k.preds)
		}
		var kidx int32
		if col >= 0 {
			ca := &k.cands[col]
			row = extendRow(row, col)
			if relaxed >= 0 {
				row[col] = relaxed
			}
			row[col]++
			kidx = int32(len(ca.instTS))
			ca.instTS = append(ca.instTS, row[col])
			ca.tup = append(ca.tup, [3]int64{ddg.NoAddr, provAddr(px, in.x), provAddr(py, in.y)})
			if ca.elig {
				var carry uint8
				if px != nil {
					if px.instr == ca.id {
						carry |= carryX
					} else if px.isLoad && px.storedInstr == ca.id {
						carry |= tripX
					}
				}
				if py != nil {
					if py.instr == ca.id {
						carry |= carryY
					} else if py.isLoad && py.storedInstr == ca.id {
						carry |= tripY
					}
				}
				if carry&(carryX|carryY) != 0 {
					ca.accum++
				}
				ca.carry = append(ca.carry, carry)
			}
			k.charge(streamInstanceBytes)
		}
		if isBranch {
			// Set after this node's own row was computed: a conditional
			// branch's control predecessor is the previous branch.
			k.branch = row
			k.branchSet = true
		}
		if in.dst != ir.RegNone {
			dst := &f.regs[in.dst]
			*dst = streamVal{row: row, seq: k.n, instr: id, cand: col, inst: kidx, storedInstr: -1}
		}
		if transient {
			k.freeRow(row)
		}
	}
	k.n++
	return k.err
}

// maxWithout is column col's maximum over a binary instance's X, Y and
// control predecessors, leaving out every slot the cut producer fills —
// the reference's p != cut test, where X and Y may share one producer.
func (k *StreamKernel) maxWithout(col int32, cut, px, py *streamVal) int32 {
	var m int32
	for _, v := range [2]*streamVal{px, py} {
		if v != nil && v.seq != cut.seq && int(col) < len(v.row) && v.row[col] > m {
			m = v.row[col]
		}
	}
	if k.dopts.IncludeControl && k.branchSet && int(col) < len(k.branch) && k.branch[col] > m {
		m = k.branch[col]
	}
	return m
}

// planCuts turns pass 1's online reduction evidence into the replay's cut
// plan: for every column that meets the ≥50% rule, the operand carrying
// each instance's accumulator, checked in the reference's accumPredOf
// order — X (register chain, or a load of the address the instance's
// value is first stored to) before Y. It reports whether any column is cut.
func (k *StreamKernel) planCuts() bool {
	plans := make([][]uint8, len(k.cands))
	cut := false
	for c := range k.cands {
		ca := &k.cands[c]
		if !ca.isReduction() {
			continue
		}
		cut = true
		plans[c] = make([]uint8, len(ca.instTS))
		for i := range plans[c] {
			switch {
			case ca.carries(i, 0):
				plans[c][i] = carryX
			case ca.carries(i, 1):
				plans[c][i] = carryY
			}
		}
	}
	if cut {
		k.cutPlan = plans
	}
	return cut
}

// relax is pass 2 of RelaxReductions: unless no column is a reduction (then
// pass 1's sweep already is the answer), the region is swept again from
// the buffer with the planned operands cut. The budget keeps counting the
// buffer, and the peaks span both passes.
func (k *StreamKernel) relax(ctx context.Context) error {
	if !k.planCuts() {
		return nil
	}
	peak, peakAddrs := k.peak, k.peakAddrs
	k.reset()
	k.charge(int64(len(k.replay)) * streamEventBytes)
	for i, ev := range k.replay {
		if i%4096 == 4095 {
			if err := Canceled(ctx); err != nil {
				return err
			}
		}
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			return err
		}
	}
	k.peak = max(k.peak, peak)
	k.peakAddrs = max(k.peakAddrs, peakAddrs)
	return nil
}

// Finish completes the region: under RelaxReductions it first runs the
// replay pass, then partitions every candidate column, runs the §3.2/§3.3
// stride stages over the online tuples, and assembles the Report exactly as
// AnalyzeCtx does over a materialized graph — same obs counters, same
// per-candidate Guard isolation, same degraded-slot and aggregation rules,
// same sort. Callers Release the kernel afterwards either way.
func (k *StreamKernel) Finish(ctx context.Context) (*Report, error) {
	if k.err != nil {
		return nil, k.err
	}
	if len(k.cands) == 0 {
		return &Report{TotalNodes: int(k.n)}, nil
	}
	if err := Canceled(ctx); err != nil {
		return nil, err
	}
	if k.opts.RelaxReductions {
		if err := k.relax(ctx); err != nil {
			return nil, err
		}
	}
	rep := &Report{TotalNodes: int(k.n)}
	rec := k.rec
	if rec != nil {
		rec.Add(obs.DDGNodes, k.n)
		rec.Add(obs.DDGEdges, k.edges)
		rec.Add(obs.CandidatesAnalyzed, int64(len(k.cands)))
		rec.Set(obs.BudgetMaxAnalysisBytes, k.opts.Budget.MaxAnalysisBytes)
		rec.Max(obs.AnalysisFootprintBytes, k.peak)
		rec.Max(obs.ShadowPeakLiveAddresses, int64(k.peakAddrs))
		if len(k.touched) > 0 {
			rec.Add(obs.ShadowPagesTouched, int64(len(k.touched)))
		}
		rec.Add(obs.TilesDispatched, 1) // the whole region is one sweep
	}

	k.order = k.order[:0]
	for c := range k.cands {
		k.order = append(k.order, int32(c))
	}
	sort.Slice(k.order, func(i, j int) bool { return k.cands[k.order[i]].id < k.cands[k.order[j]].id })

	var unitErrs []error
	results := make([]InstrReport, len(k.order))
	stride := rec.StartTimer("stride")
	for i, c := range k.order {
		ca := &k.cands[c]
		err := Guard(i, "candidate", int64(ca.id), func() error {
			if analyzeUnitHook != nil {
				analyzeUnitHook(ca.id)
			}
			results[i] = k.finishCand(ca)
			return nil
		})
		if err != nil {
			in := k.mod.InstrAt(ca.id)
			results[i] = InstrReport{ID: ca.id, Line: in.Pos.Line, AssignID: in.AssignID}
			unitErrs = append(unitErrs, err)
		}
	}
	stride.Stop()
	rep.summarize(results, rec)
	return rep, errors.Join(unitErrs...)
}

// finishCand runs the post-timestamp stages for one candidate column. The
// instance handles handed to partition/stride are iota positions into the
// column's parallel arrays; the mapping to the reference's node indices is
// order-preserving, so every grouping and every group size is identical.
func (k *StreamKernel) finishCand(ca *candCol) InstrReport {
	nInst := len(ca.instTS)
	for len(k.iota) < nInst {
		k.iota = append(k.iota, int32(len(k.iota)))
	}
	inst := k.iota[:nInst]
	parts := k.fin.partition(inst, ca.instTS)
	in := k.mod.InstrAt(ca.id)
	for i := range ca.tup {
		if ca.tup[i][0] == ddg.NoAddr {
			ca.tup[i][0] = 0 // never stored: the paper's artificial address
		}
	}
	unit, non := k.stride.stats(ca.tup, parts, in.Type.Size())
	var cp int32
	for _, t := range ca.instTS {
		if t > cp {
			cp = t
		}
	}
	rep := InstrReport{
		ID: ca.id, Line: in.Pos.Line, AssignID: in.AssignID, Text: in.String(),
		Instances: nInst, Partitions: len(parts), CriticalPath: cp,
		Unit:        StrideSummary{VecOps: unit.VecOps, Subpartitions: unit.Subpartitions, SumSizes: unit.SumSizes},
		NonUnit:     StrideSummary{VecOps: non.VecOps, Subpartitions: non.Subpartitions, SumSizes: non.SumSizes},
		IsReduction: ca.isReduction(),
	}
	if len(parts) > 0 {
		rep.AvgPartitionSize = float64(nInst) / float64(len(parts))
	}
	return rep
}
