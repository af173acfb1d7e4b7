package core

// White-box tests of the paged shadow memory: page-boundary behaviour,
// sparse far-apart pages, the NoAddr invariant, epoch-based region reset,
// and paged-vs-map equivalence of the assembled reports. These poke the
// kernel's internals directly; the black-box differentials (stream_test.go
// and the pipeline battery) cover whole-report equivalence on real traces.

import (
	"context"
	"reflect"
	"testing"

	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
)

// shadowTestModule builds a minimal module whose instruction IDs the tests
// feed by hand: a candidate FP add (id 0), a store of its value (id 1), a
// load (id 2), and a return (id 3).
func shadowTestModule() *ir.Module {
	m := &ir.Module{Name: "shadow"}
	f := &ir.Function{Name: "main"}
	b := f.NewBlock()
	d := f.NewReg()
	l := f.NewReg()
	b.Instrs = append(b.Instrs,
		ir.Instr{Op: ir.OpBin, Dst: d, Type: ir.F64, Bin: ir.AddOp, X: ir.FloatConst(1), Y: ir.FloatConst(2), Loop: -1},
		ir.Instr{Op: ir.OpStore, Dst: ir.RegNone, Type: ir.F64, X: ir.IntConst(0), Y: ir.RegOp(d), Loop: -1},
		ir.Instr{Op: ir.OpLoad, Dst: l, Type: ir.F64, X: ir.IntConst(0), Loop: -1},
		ir.Instr{Op: ir.OpRet, Dst: ir.RegNone, Loop: -1},
	)
	m.AddFunc(f)
	m.Finalize()
	return m
}

const (
	shadowTestAdd   = 0
	shadowTestStore = 1
	shadowTestLoad  = 2
)

func feedStore(t *testing.T, k *StreamKernel, addr int64) {
	t.Helper()
	if err := k.Feed(shadowTestAdd, -1); err != nil {
		t.Fatal(err)
	}
	if err := k.Feed(shadowTestStore, addr); err != nil {
		t.Fatal(err)
	}
}

// TestShadowPageBoundary stores at the last address of one page and the
// first address of the next: the cells must land in two distinct pages,
// resolve independently, and not bleed into neighbouring slots.
func TestShadowPageBoundary(t *testing.T) {
	mod := shadowTestModule()
	k := AcquireStreamKernel(mod, ddg.Options{}, Options{}, nil)
	defer k.Release()

	lo := int64(ir.GlobalBase) + shadowPageSpan - 1 // last slot of its page
	hi := lo + 1                                    // first slot of the next
	feedStore(t, k, lo)
	feedStore(t, k, hi)

	if got := len(k.touched); got != 2 {
		t.Fatalf("pages touched = %d, want 2 (boundary addresses must span two pages)", got)
	}
	cl, ch := k.cellAt(lo), k.cellAt(hi)
	if cl == nil || ch == nil {
		t.Fatalf("boundary cells not resolvable: lo=%v hi=%v", cl, ch)
	}
	if cl == ch {
		t.Fatalf("boundary addresses share one cell")
	}
	for _, miss := range []int64{lo - 1, hi + 1, lo - shadowPageSpan, hi + shadowPageSpan} {
		if k.cellAt(miss) != nil {
			t.Fatalf("address %#x resolved to a cell without a store", miss)
		}
	}
	if len(k.shadow) != 0 {
		t.Fatalf("in-span addresses leaked into the overflow map (%d entries)", len(k.shadow))
	}
	if k.peakAddrs != 2 {
		t.Fatalf("peak live addresses = %d, want 2", k.peakAddrs)
	}
}

// TestShadowSparseFarPages stores at widely separated addresses: the
// directory must grow sparsely (two pages for two in-span stores), and an
// address beyond the directory span must fall back to the overflow map
// without touching the page table.
func TestShadowSparseFarPages(t *testing.T) {
	mod := shadowTestModule()
	k := AcquireStreamKernel(mod, ddg.Options{}, Options{}, nil)
	defer k.Release()

	near := int64(ir.GlobalBase)
	far := int64(40 << 20) // 40 MiB: inside the 64 MiB directory span
	beyond := int64(maxShadowPages)<<shadowPageShift + 123

	feedStore(t, k, near)
	feedStore(t, k, far)
	feedStore(t, k, beyond)

	if got := len(k.touched); got != 2 {
		t.Fatalf("pages touched = %d, want 2 (the beyond-span store must not touch the table)", got)
	}
	// The directory and freelist persist across pooled regions, so count
	// only pages stamped with the current region's epoch.
	pages := 0
	for _, pg := range k.pageDir {
		if pg != nil && pg.epoch == k.epoch {
			pages++
		}
	}
	if pages != 2 {
		t.Fatalf("live pages = %d, want 2 for two sparse stores", pages)
	}
	if k.cellAt(near) == nil || k.cellAt(far) == nil || k.cellAt(beyond) == nil {
		t.Fatalf("not every stored address resolves")
	}
	if len(k.shadow) != 1 {
		t.Fatalf("overflow map holds %d entries, want exactly the beyond-span address", len(k.shadow))
	}
	if k.peakAddrs != 3 {
		t.Fatalf("peak live addresses = %d, want 3", k.peakAddrs)
	}
}

// TestShadowNoAddrNeverPaged feeds non-memory events (NoAddr) and a
// defensive negative-address memory event: the page table must stay
// untouched — negative addresses route to the overflow map.
func TestShadowNoAddrNeverPaged(t *testing.T) {
	mod := shadowTestModule()
	k := AcquireStreamKernel(mod, ddg.Options{IncludeAntiOutput: true}, Options{}, nil)
	defer k.Release()

	// The directory may hold retired pages from a pooled prior region; only
	// the touched list and epoch stamps reflect this region.
	livePages := func() int {
		n := 0
		for _, pg := range k.pageDir {
			if pg != nil && pg.epoch == k.epoch {
				n++
			}
		}
		return n
	}
	for i := 0; i < 4; i++ {
		if err := k.Feed(shadowTestAdd, -1); err != nil {
			t.Fatal(err)
		}
	}
	if len(k.touched) != 0 || livePages() != 0 {
		t.Fatalf("non-memory events touched the page table (%d touched, %d live)", len(k.touched), livePages())
	}
	// A load at a negative address creates its reader cell off-table.
	if err := k.Feed(shadowTestLoad, -1); err != nil {
		t.Fatal(err)
	}
	if len(k.touched) != 0 || livePages() != 0 {
		t.Fatalf("negative-address event touched the page table")
	}
	if len(k.shadow) != 1 {
		t.Fatalf("negative address not in the overflow map (%d entries)", len(k.shadow))
	}
}

// TestShadowEpochReuse proves region reset is epoch-based: after Release,
// the same kernel's repopulated page slots are invisible (clean cells) in
// the next region even though no slot was cleared.
func TestShadowEpochReuse(t *testing.T) {
	mod := shadowTestModule()
	k := AcquireStreamKernel(mod, ddg.Options{}, Options{}, nil)
	addr := int64(ir.GlobalBase) + 64
	feedStore(t, k, addr)
	if k.cellAt(addr) == nil {
		t.Fatalf("stored address does not resolve")
	}
	e0 := k.epoch
	k.Release()

	// The pool is LIFO per P, so a single-goroutine re-acquire returns the
	// same kernel; if the runtime hands back a different one the epoch
	// checks below still hold vacuously on its fresh state.
	k2 := AcquireStreamKernel(mod, ddg.Options{}, Options{}, nil)
	defer k2.Release()
	if k2 == k && k2.epoch == e0 {
		t.Fatalf("Release did not advance the region epoch")
	}
	if c := k2.cellAt(addr); c != nil {
		t.Fatalf("previous region's cell leaked through the epoch reset: %+v", c)
	}
	// A fresh store in the new region resolves to a fresh, clean cell.
	feedStore(t, k2, addr)
	c := k2.cellAt(addr)
	if c == nil || !c.hasStore {
		t.Fatalf("re-stored address does not resolve cleanly: %+v", c)
	}
}

// TestShadowEpochWrap forces the uint32 epoch to wrap and checks the
// retained pages are scrubbed so stale slots cannot alias the restarted
// epoch sequence.
func TestShadowEpochWrap(t *testing.T) {
	mod := shadowTestModule()
	k := AcquireStreamKernel(mod, ddg.Options{}, Options{}, nil)
	addr := int64(ir.GlobalBase) + 8
	feedStore(t, k, addr)
	k.epoch = ^uint32(0) // pretend ~4B regions have passed
	pg := k.pageDir[addr>>shadowPageShift]
	pg.epoch = k.epoch
	pg.slots[addr&shadowPageMask].epoch = k.epoch
	k.Release()

	k2 := AcquireStreamKernel(mod, ddg.Options{}, Options{}, nil)
	defer k2.Release()
	if k2 == k {
		if k2.epoch != 1 {
			t.Fatalf("epoch after wrap = %d, want 1", k2.epoch)
		}
		if c := k2.cellAt(addr); c != nil {
			t.Fatalf("stale slot survived the epoch wrap scrub: %+v", c)
		}
	}
}

// TestShadowPagedMatchesMap runs identical feed sequences — boundary
// straddles, sparse pages, overflow addresses, repeated overwrites —
// through the paged and map shadows and demands DeepEqual reports and
// identical peaks and budget accounting.
func TestShadowPagedMatchesMap(t *testing.T) {
	mod := shadowTestModule()
	addrs := []int64{
		ir.GlobalBase,
		ir.GlobalBase + shadowPageSpan - 1,
		ir.GlobalBase + shadowPageSpan,
		ir.GlobalBase + 7*shadowPageSpan + 13,
		40 << 20,
		int64(maxShadowPages)<<shadowPageShift + 5, // overflow
		ir.GlobalBase,                              // overwrite
	}
	run := func(mapShadow bool, dopts ddg.Options) (*Report, int, int64) {
		k := AcquireStreamKernel(mod, dopts, Options{}, nil)
		defer k.Release()
		if mapShadow {
			k.UseMapShadow()
		}
		for _, a := range addrs {
			feedStore(t, k, a)
			if err := k.Feed(shadowTestLoad, a); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := k.Finish(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep, k.PeakLiveAddresses(), k.PeakLiveBytes()
	}
	for _, dopts := range []ddg.Options{{}, {IncludeAntiOutput: true}} {
		pagedRep, pagedAddrs, pagedBytes := run(false, dopts)
		mapRep, mapAddrs, mapBytes := run(true, dopts)
		if !reflect.DeepEqual(pagedRep, mapRep) {
			t.Fatalf("paged report differs from map report (anti=%v):\npaged: %+v\nmap:   %+v",
				dopts.IncludeAntiOutput, pagedRep, mapRep)
		}
		if pagedAddrs != mapAddrs {
			t.Fatalf("peak live addresses differ: paged %d, map %d", pagedAddrs, mapAddrs)
		}
		if pagedBytes != mapBytes {
			t.Fatalf("budget accounting differs: paged %d, map %d bytes", pagedBytes, mapBytes)
		}
	}
}
