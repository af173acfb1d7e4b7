package pipeline_test

// Randomized end-to-end property testing: generate small random (but valid)
// MiniC programs, run the entire pipeline, and check the invariants from
// DESIGN.md §5 on each. This exercises interactions no hand-written case
// covers: nested loops with mixed recurrences, conditional stores, shared
// scalars, and arbitrary affine index offsets.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/opt"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// progGen generates random MiniC programs.
type progGen struct {
	rng    *rand.Rand
	b      strings.Builder
	arrays []string
	n      int // array length
	depth  int
	loopVs []string
}

func generateProgram(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), n: 8 + rand.New(rand.NewSource(seed)).Intn(5)}
	numArrays := 2 + g.rng.Intn(3)
	for i := 0; i < numArrays; i++ {
		name := fmt.Sprintf("A%d", i)
		g.arrays = append(g.arrays, name)
		fmt.Fprintf(&g.b, "double %s[%d];\n", name, g.n)
	}
	g.b.WriteString("double acc;\n\nvoid main() {\n  int i;\n  int j;\n  double s;\n  s = 0.5;\n")
	// Initialization loop so loads never see uninitialized zeros only.
	fmt.Fprintf(&g.b, "  for (i = 0; i < %d; i++) {\n", g.n)
	for _, a := range g.arrays {
		fmt.Fprintf(&g.b, "    %s[i] = %s + 0.25 * i;\n", a, g.constant())
	}
	g.b.WriteString("  }\n")

	stmts := 1 + g.rng.Intn(3)
	for i := 0; i < stmts; i++ {
		g.loop("i")
	}
	g.b.WriteString("  print(s);\n  print(acc);\n")
	for _, a := range g.arrays {
		fmt.Fprintf(&g.b, "  print(%s[%d]);\n", a, g.rng.Intn(g.n))
	}
	g.b.WriteString("}\n")
	return g.b.String()
}

func (g *progGen) constant() string {
	return fmt.Sprintf("%.3f", 0.1+g.rng.Float64())
}

// index produces an in-bounds affine index for a loop running [1, n-1).
func (g *progGen) index(v string) string {
	switch g.rng.Intn(4) {
	case 0:
		return v + " - 1"
	case 1:
		return v + " + 1"
	default:
		return v
	}
}

func (g *progGen) indent() string { return strings.Repeat("  ", g.depth+1) }

func (g *progGen) loop(v string) {
	// All loops run 1..n-1 so index offsets ±1 stay in bounds.
	fmt.Fprintf(&g.b, "%sfor (%s = 1; %s < %d; %s++) {\n", g.indent(), v, v, g.n-1, v)
	g.depth++
	g.loopVs = append(g.loopVs, v)

	body := 1 + g.rng.Intn(3)
	for k := 0; k < body; k++ {
		switch g.rng.Intn(6) {
		case 0: // array-to-array statement
			dst := g.arrays[g.rng.Intn(len(g.arrays))]
			fmt.Fprintf(&g.b, "%s%s[%s] = %s;\n", g.indent(), dst, v, g.expr(v, 2))
		case 1: // recurrence on the destination array
			dst := g.arrays[g.rng.Intn(len(g.arrays))]
			fmt.Fprintf(&g.b, "%s%s[%s] = %s[%s - 1] * %s + %s;\n",
				g.indent(), dst, v, dst, v, g.constant(), g.expr(v, 1))
		case 2: // scalar reduction
			fmt.Fprintf(&g.b, "%ss = s + %s;\n", g.indent(), g.expr(v, 1))
		case 3: // global accumulator
			fmt.Fprintf(&g.b, "%sacc = acc + %s;\n", g.indent(), g.expr(v, 1))
		case 4: // conditional store
			dst := g.arrays[g.rng.Intn(len(g.arrays))]
			fmt.Fprintf(&g.b, "%sif (%s[%s] > %s) { %s[%s] = %s; }\n",
				g.indent(), g.arrays[g.rng.Intn(len(g.arrays))], v, g.constant(),
				dst, v, g.expr(v, 1))
		case 5: // nested loop over j (only once, only from an i loop)
			if v == "i" && g.depth < 2 {
				g.loop("j")
			} else {
				fmt.Fprintf(&g.b, "%ss = s * %s;\n", g.indent(), g.constant())
			}
		}
	}
	g.loopVs = g.loopVs[:len(g.loopVs)-1]
	g.depth--
	fmt.Fprintf(&g.b, "%s}\n", g.indent())
}

// expr builds a random arithmetic expression over array loads, loop
// variables, and constants.
func (g *progGen) expr(v string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return g.constant()
		case 1:
			return "s"
		default:
			a := g.arrays[g.rng.Intn(len(g.arrays))]
			return fmt.Sprintf("%s[%s]", a, g.index(v))
		}
	}
	ops := []string{"+", "-", "*"}
	op := ops[g.rng.Intn(len(ops))]
	return fmt.Sprintf("(%s %s %s)", g.expr(v, depth-1), op, g.expr(v, depth-1))
}

func TestRandomProgramsInvariants(t *testing.T) {
	const programs = 30
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generateProgram(seed)
			mod, res, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("rand%d.c", seed), src)
			if err != nil {
				t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
			}

			// Determinism.
			_, _, tr2, err := pipeline.CompileAndTrace("again.c", src)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr2.Events) != len(tr.Events) {
				t.Fatalf("non-deterministic trace length: %d vs %d", len(tr.Events), len(tr2.Events))
			}

			// Trace length matches executed steps.
			if int64(len(tr.Events)) != res.Steps {
				t.Fatalf("trace %d events, %d steps", len(tr.Events), res.Steps)
			}

			// Codec round trip.
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr.Events); err != nil {
				t.Fatal(err)
			}
			decoded, err := trace.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Events {
				if decoded[i] != tr.Events[i] {
					t.Fatalf("codec mismatch at %d", i)
				}
			}

			// DDG invariants.
			g, err := ddg.Build(tr)
			if err != nil {
				t.Fatalf("DDG: %v", err)
			}
			if err := g.CheckTopological(); err != nil {
				t.Fatal(err)
			}

			instances := g.CandidateInstances()
			kumarTS := baseline.KumarTimestamps(g)
			small := g.NumNodes() <= 4000
			for id, nodes := range instances {
				ts := core.Timestamps(g, id, core.Options{})
				parts := core.Partitions(g, id, core.Options{})

				// Disjoint cover.
				seen := make(map[int32]bool)
				total := 0
				for _, p := range parts {
					for _, n := range p.Nodes {
						if seen[n] {
							t.Fatalf("instr %d: node %d twice", id, n)
						}
						seen[n] = true
					}
					total += len(p.Nodes)
				}
				if total != len(nodes) {
					t.Fatalf("instr %d: cover %d of %d", id, total, len(nodes))
				}

				// Properties 3.1 (quadratic; only on small graphs).
				if small {
					if err := core.VerifyIndependence(g, id, ts); err != nil {
						t.Fatalf("instr %d: %v\nprogram:\n%s", id, err, src)
					}
					if err := core.VerifyEarliest(g, id, ts); err != nil {
						t.Fatalf("instr %d: %v", id, err)
					}
				}

				// Property 3.2 against Kumar.
				kparts := baseline.PartitionsByTimestamp(g, id, kumarTS)
				if len(kparts) < len(parts) {
					t.Fatalf("instr %d: Kumar %d partitions < Algorithm 1 %d",
						id, len(kparts), len(parts))
				}

				// Stride subpartition internal consistency.
				elem := mod.InstrAt(id).Type.Size()
				for i := range parts {
					for _, sp := range core.UnitStrideSubpartitions(g, &parts[i], elem) {
						if err := core.VerifySubpartitionStrides(g, &sp); err != nil {
							t.Fatalf("instr %d: %v", id, err)
						}
					}
				}
			}

			// Report-level sanity.
			rep := core.Analyze(g, core.Options{})
			if rep.UnitVecOpsPct+rep.NonUnitVecOpsPct > 100.000001 {
				t.Fatalf("vec ops exceed 100%%: %v + %v", rep.UnitVecOpsPct, rep.NonUnitVecOpsPct)
			}
			if rep.TotalCandidateOps != g.NumCandidateOps() {
				t.Fatal("candidate count mismatch")
			}
		})
	}
}

// TestRandomProgramsOptimizerEquivalence: the optimization passes preserve
// outputs on arbitrary generated programs and never add work.
func TestRandomProgramsOptimizerEquivalence(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		src := generateProgram(seed)
		mod, err := pipeline.Compile("p.c", src)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := pipeline.Run(context.Background(), mod, false, core.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		mod2, err := pipeline.Compile("p.c", src)
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(mod2)
		if err := mod2.Verify(); err != nil {
			t.Fatalf("seed %d: optimized module invalid: %v\n%s", seed, err, src)
		}
		optimized, err := pipeline.Run(context.Background(), mod2, false, core.Budget{})
		if err != nil {
			t.Fatalf("seed %d: optimized run failed: %v", seed, err)
		}
		if len(plain.Output) != len(optimized.Output) {
			t.Fatalf("seed %d: output lengths differ", seed)
		}
		for i := range plain.Output {
			if plain.Output[i] != optimized.Output[i] {
				t.Fatalf("seed %d output %d: %v vs %v\n%s", seed, i, plain.Output[i], optimized.Output[i], src)
			}
		}
		if optimized.Steps > plain.Steps {
			t.Fatalf("seed %d: optimizer increased steps %d → %d", seed, plain.Steps, optimized.Steps)
		}
	}
}

// TestRandomProgramsRelaxationMonotone: relaxing reduction dependences can
// only merge partitions (never split them) for every candidate instruction.
func TestRandomProgramsRelaxationMonotone(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		src := generateProgram(seed)
		_, _, tr, err := pipeline.CompileAndTrace("r.c", src)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ddg.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		for id := range g.CandidateInstances() {
			base := core.Partitions(g, id, core.Options{})
			relaxed := core.Partitions(g, id, core.Options{RelaxReductions: true})
			if len(relaxed) > len(base) {
				t.Fatalf("seed %d instr %d: relaxation split partitions (%d -> %d)\n%s",
					seed, id, len(base), len(relaxed), src)
			}
		}
	}
}
