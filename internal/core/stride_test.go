package core_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
)

// synthGraph builds a DDG directly (without a trace) for analysis unit
// tests: a module with a single candidate instruction, and nodes whose
// preds/tuples the caller controls.
func synthGraph(t *testing.T, nodes []ddg.Node) *ddg.Graph {
	t.Helper()
	m := &ir.Module{Name: "synth"}
	f := &ir.Function{Name: "main"}
	b := f.NewBlock()
	d := f.NewReg()
	// Instruction 0: the candidate FP add everything instantiates.
	b.Instrs = append(b.Instrs,
		ir.Instr{Op: ir.OpBin, Dst: d, Type: ir.F64, Bin: ir.AddOp, X: ir.FloatConst(0), Y: ir.FloatConst(0), Loop: -1},
		ir.Instr{Op: ir.OpRet, Dst: ir.RegNone, Loop: -1},
	)
	m.AddFunc(f)
	m.Finalize()
	for i := range nodes {
		nodes[i].Instr = 0
	}
	return &ddg.Graph{Mod: m, Nodes: nodes}
}

func TestUnitStrideSubpartitionsBasic(t *testing.T) {
	// Eight independent instances walking three unit-stride columns.
	var nodes []ddg.Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, ddg.Node{
			P1: ddg.NoPred, P2: ddg.NoPred,
			StoreAddr: 0x1000 + int64(i)*8,
			OpAddr1:   0x2000 + int64(i)*8,
			OpAddr2:   0x3000 + int64(i)*8,
		})
	}
	g := synthGraph(t, nodes)
	parts := core.Partitions(g, 0, core.Options{})
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(parts))
	}
	sps := core.UnitStrideSubpartitions(g, &parts[0], 8)
	if len(sps) != 1 || sps[0].Size() != 8 {
		t.Fatalf("subpartitions = %+v, want one of size 8", sps)
	}
	if sps[0].Strides != [3]int64{8, 8, 8} {
		t.Fatalf("strides = %v", sps[0].Strides)
	}
}

func TestUnitStrideZeroComponentAllowed(t *testing.T) {
	// A splat operand (same address every instance) must not break the
	// subpartition.
	var nodes []ddg.Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, ddg.Node{
			P1: ddg.NoPred, P2: ddg.NoPred,
			StoreAddr: 0x1000 + int64(i)*8,
			OpAddr1:   0x2000, // invariant: zero stride
			OpAddr2:   0,      // constant operand
		})
	}
	g := synthGraph(t, nodes)
	parts := core.Partitions(g, 0, core.Options{})
	sps := core.UnitStrideSubpartitions(g, &parts[0], 8)
	if len(sps) != 1 || sps[0].Size() != 6 {
		t.Fatalf("subpartitions = %+v, want one of size 6", sps)
	}
}

func TestUnitStrideBreaksOnNonUnit(t *testing.T) {
	// Stride-16 walks split into singletons under the unit analysis.
	var nodes []ddg.Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, ddg.Node{
			P1: ddg.NoPred, P2: ddg.NoPred,
			StoreAddr: 0x1000 + int64(i)*16,
			OpAddr1:   0x2000 + int64(i)*16,
		})
	}
	g := synthGraph(t, nodes)
	parts := core.Partitions(g, 0, core.Options{})
	sps := core.UnitStrideSubpartitions(g, &parts[0], 8)
	if len(sps) != 5 {
		t.Fatalf("subpartitions = %d, want 5 singletons", len(sps))
	}
}

func TestUnitStrideBreaksOnStrideChange(t *testing.T) {
	// Unit stride then a gap then unit stride: two subpartitions.
	addrs := []int64{0x1000, 0x1008, 0x1010, 0x2000, 0x2008}
	var nodes []ddg.Node
	for _, a := range addrs {
		nodes = append(nodes, ddg.Node{P1: ddg.NoPred, P2: ddg.NoPred, StoreAddr: a})
	}
	g := synthGraph(t, nodes)
	parts := core.Partitions(g, 0, core.Options{})
	sps := core.UnitStrideSubpartitions(g, &parts[0], 8)
	if len(sps) != 2 || sps[0].Size() != 3 || sps[1].Size() != 2 {
		sizes := []int{}
		for _, sp := range sps {
			sizes = append(sizes, sp.Size())
		}
		t.Fatalf("subpartition sizes = %v, want [3 2]", sizes)
	}
}

func TestNonUnitStrideConstant(t *testing.T) {
	// Stride-144 (the milc su3_matrix size): the non-unit analysis groups
	// all of them.
	var nodes []ddg.Node
	for i := 0; i < 7; i++ {
		nodes = append(nodes, ddg.Node{
			P1: ddg.NoPred, P2: ddg.NoPred,
			StoreAddr: 0x1000 + int64(i)*144,
			OpAddr1:   0x9000 + int64(i)*144,
		})
	}
	g := synthGraph(t, nodes)
	var ns []int32
	for i := range nodes {
		ns = append(ns, int32(i))
	}
	sps := core.NonUnitStrideSubpartitions(g, ns)
	if len(sps) != 1 || sps[0].Size() != 7 {
		t.Fatalf("non-unit subpartitions = %+v, want one of 7", sps)
	}
	if sps[0].Strides[0] != 144 {
		t.Fatalf("stride = %d, want 144", sps[0].Strides[0])
	}
}

func TestNonUnitStrideWaitList(t *testing.T) {
	// Two stride families in disjoint address ranges (accesses to two
	// different arrays): the first scan recovers family A and waitlists
	// family B; the second pass recovers B.
	var nodes []ddg.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, ddg.Node{P1: ddg.NoPred, P2: ddg.NoPred, StoreAddr: 0x1000 + int64(i)*24})
	}
	for i := 0; i < 4; i++ {
		nodes = append(nodes, ddg.Node{P1: ddg.NoPred, P2: ddg.NoPred, StoreAddr: 0x9000 + int64(i)*40})
	}
	g := synthGraph(t, nodes)
	var ns []int32
	for i := range nodes {
		ns = append(ns, int32(i))
	}
	sps := core.NonUnitStrideSubpartitions(g, ns)
	total := 0
	var sizes []int
	for _, sp := range sps {
		total += sp.Size()
		sizes = append(sizes, sp.Size())
		if err := core.VerifySubpartitionStrides(g, &sp); err != nil {
			t.Fatal(err)
		}
	}
	if total != 8 {
		t.Fatalf("coverage = %d, want 8", total)
	}
	// Family A (stride 24) is one subpartition; family B (stride 40)
	// loses its first element to A's trailing mismatch handling but is
	// otherwise grouped — accept either [4 4] or [4 3 1]-style splits, as
	// long as both dominant groups exist.
	big := 0
	for _, s := range sizes {
		if s >= 3 {
			big++
		}
	}
	if big < 2 {
		t.Fatalf("subpartition sizes = %v, want two groups of >= 3", sizes)
	}
}

// TestTimestampPropertyRandomDAGs quick-checks Properties 3.1 on random
// synthetic DDGs: random backward edges, random instance marking.
func TestTimestampPropertyRandomDAGs(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		nodes := make([]ddg.Node, n)
		for i := range nodes {
			nodes[i].P1, nodes[i].P2 = ddg.NoPred, ddg.NoPred
			if i > 0 && rng.Intn(3) > 0 {
				nodes[i].P1 = int32(rng.Intn(i))
			}
			if i > 1 && rng.Intn(3) == 0 {
				nodes[i].P2 = int32(rng.Intn(i))
			}
		}
		g := synthGraphQuick(nodes, func(i int) bool { return i%3 == 0 })
		ts := core.Timestamps(g, 0, core.Options{})
		if err := core.VerifyIndependence(g, 0, ts); err != nil {
			return false
		}
		if err := core.VerifyEarliest(g, 0, ts); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// synthGraphQuick builds a two-instruction module: instruction 0 is the
// analyzed candidate, instruction 1 an unrelated int op; mark selects which
// nodes instantiate the candidate.
func synthGraphQuick(nodes []ddg.Node, mark func(int) bool) *ddg.Graph {
	m := &ir.Module{Name: "synthq"}
	f := &ir.Function{Name: "main"}
	b := f.NewBlock()
	d := f.NewReg()
	e := f.NewReg()
	b.Instrs = append(b.Instrs,
		ir.Instr{Op: ir.OpBin, Dst: d, Type: ir.F64, Bin: ir.AddOp, X: ir.FloatConst(0), Y: ir.FloatConst(0), Loop: -1},
		ir.Instr{Op: ir.OpBin, Dst: e, Type: ir.I64, Bin: ir.AddOp, X: ir.IntConst(0), Y: ir.IntConst(0), Loop: -1},
		ir.Instr{Op: ir.OpRet, Dst: ir.RegNone, Loop: -1},
	)
	m.AddFunc(f)
	m.Finalize()
	for i := range nodes {
		if mark(i) {
			nodes[i].Instr = 0
		} else {
			nodes[i].Instr = 1
		}
	}
	return &ddg.Graph{Mod: m, Nodes: nodes}
}

// TestPartitionsCoverInstances: partitions must exactly cover the instance
// set, disjointly, for real programs too.
func TestPartitionsCoverInstances(t *testing.T) {
	k := kernels.Listing3(8)
	_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	for id, instances := range g.CandidateInstances() {
		parts := core.Partitions(g, id, core.Options{})
		seen := make(map[int32]bool)
		total := 0
		for _, p := range parts {
			for _, n := range p.Nodes {
				if seen[n] {
					t.Fatalf("instr %d: node %d in two partitions", id, n)
				}
				seen[n] = true
			}
			total += len(p.Nodes)
		}
		if total != len(instances) {
			t.Fatalf("instr %d: partitions cover %d of %d instances", id, total, len(instances))
		}
	}
}

// TestListing3NonUnitStride reproduces §3.3's motivation: the
// array-of-structures loop exposes stride-16 (two doubles) groups, and the
// column loop of the first nest exposes stride-N groups, both invisible to
// the unit-stride analysis.
func TestListing3NonUnitStride(t *testing.T) {
	const n = 8
	k := kernels.Listing3(n)
	_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}

	// The AoS loop (@aos-loop region): S2/S3 instances are independent
	// with stride sizeof(struct point) = 16.
	region := tr.Slice(tr.Regions(tr.Module.LoopByLine(k.LineOf("@aos-loop")).ID)[0])
	g, err := ddg.Build(region)
	if err != nil {
		t.Fatal(err)
	}
	rep := core.Analyze(g, core.Options{})
	if rep.UnitVecOpsPct != 0 {
		t.Errorf("AoS loop unit vec ops = %.1f%%, want 0 (stride 16)", rep.UnitVecOpsPct)
	}
	if rep.NonUnitVecOpsPct < 99 {
		t.Errorf("AoS loop non-unit vec ops = %.1f%%, want ~100%%", rep.NonUnitVecOpsPct)
	}

	// The transformed Listing 4 SoA loop is fully unit-stride.
	k4 := kernels.Listing4(n)
	_, _, tr4, err := pipeline.CompileAndTrace(k4.Name+".c", k4.Source)
	if err != nil {
		t.Fatal(err)
	}
	region4 := tr4.Slice(tr4.Regions(tr4.Module.LoopByLine(k4.LineOf("@soa-loop")).ID)[0])
	g4, err := ddg.Build(region4)
	if err != nil {
		t.Fatal(err)
	}
	rep4 := core.Analyze(g4, core.Options{})
	if rep4.UnitVecOpsPct < 99 {
		t.Errorf("SoA loop unit vec ops = %.1f%%, want ~100%%", rep4.UnitVecOpsPct)
	}
}

// TestListing3ColumnStride: the column-recurrence nest at stride N*8.
func TestListing3ColumnStride(t *testing.T) {
	const n = 8
	k := kernels.Listing3(n)
	_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	region := tr.Slice(tr.Regions(tr.Module.LoopByLine(k.LineOf("@col-outer")).ID)[0])
	g, err := ddg.Build(region)
	if err != nil {
		t.Fatal(err)
	}
	rep := core.Analyze(g, core.Options{})
	// The recurrence runs along j (within a row); the i direction is
	// parallel but strided by the row size: non-unit potential dominates.
	if rep.NonUnitVecOpsPct <= rep.UnitVecOpsPct {
		t.Errorf("column nest: non-unit %.1f%% should dominate unit %.1f%%",
			rep.NonUnitVecOpsPct, rep.UnitVecOpsPct)
	}
}

// TestListing3vs4Equivalence: the transformed program computes the same
// values.
func TestListing3vs4Equivalence(t *testing.T) {
	a, err := pipeline.Compile("l3.c", kernels.Listing3(8).Source)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.Compile("l4.c", kernels.Listing4(8).Source)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := pipeline.Run(context.Background(), a, false, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := pipeline.Run(context.Background(), b, false, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Output) != len(rb.Output) {
		t.Fatal("output lengths differ")
	}
	for i := range ra.Output {
		if ra.Output[i] != rb.Output[i] {
			t.Fatalf("output %d: %v vs %v", i, ra.Output[i], rb.Output[i])
		}
	}
}

// TestReductionRelaxation checks the future-work extension end to end: a
// dot product is serial under the base analysis but fully vectorizable with
// reduction dependences relaxed.
func TestReductionRelaxation(t *testing.T) {
	src := `
double a[64];
double b[64];
double out;
void main() {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; b[i] = 1.0 - 0.01 * i; }
  for (i = 0; i < 64; i++) {    /* dot */
    s = s + a[i] * b[i];
  }
  out = s;
  print(s);
}
`
	_, _, tr, err := pipeline.CompileAndTrace("dot.c", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	var addID int32 = -1
	for id := range g.CandidateInstances() {
		in := g.Mod.InstrAt(id)
		if in.Bin == ir.AddOp && core.IsReduction(g, id) {
			addID = id
		}
	}
	if addID < 0 {
		t.Fatal("reduction add not detected")
	}

	base := core.AnalyzeInstr(g, addID, core.Options{})
	relaxed := core.AnalyzeInstr(g, addID, core.Options{RelaxReductions: true})
	if base.Partitions != 64 {
		t.Errorf("base partitions = %d, want 64 (serial chain)", base.Partitions)
	}
	if relaxed.Partitions != 1 {
		t.Errorf("relaxed partitions = %d, want 1 (fully parallel)", relaxed.Partitions)
	}
	if relaxed.Unit.VecOps != 64 {
		t.Errorf("relaxed unit vec ops = %d, want 64", relaxed.Unit.VecOps)
	}
}

// TestRecurrenceNotRelaxed: an array recurrence (Listing 1's S1) must NOT
// be treated as a reduction — its chain walks distinct addresses.
func TestRecurrenceNotRelaxed(t *testing.T) {
	k := kernels.Listing1(16)
	_, _, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	line := k.LineOf("@S1")
	for _, id := range g.Mod.CandidateIDs(-1) {
		if g.Mod.InstrAt(id).Pos.Line != line {
			continue
		}
		if core.IsReduction(g, id) {
			t.Fatal("S1's array recurrence misdetected as a reduction")
		}
		base := core.AnalyzeInstr(g, id, core.Options{})
		relaxed := core.AnalyzeInstr(g, id, core.Options{RelaxReductions: true})
		if base.Partitions != relaxed.Partitions {
			t.Fatalf("relaxation changed a non-reduction: %d vs %d partitions",
				base.Partitions, relaxed.Partitions)
		}
	}
}
