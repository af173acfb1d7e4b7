package pipeline_test

// The stream kernel against the paper. Every production report comes from
// core.StreamKernel; these tests hold it to the paper-literal graph
// reference (ddg.BuildOpts + core.AnalyzeCtx: Algorithm 1 once per
// candidate over the materialized graph) and to metamorphic properties the
// paper's definitions imply, so a bug the kernel shared with a sibling
// engine would still show.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// referenceReport is the graph reference over a whole (sub)trace.
func referenceReport(t testing.TB, tr *trace.Trace, dopts ddg.Options, copts core.Options) *core.Report {
	t.Helper()
	g, err := ddg.BuildOpts(tr, dopts)
	if err != nil {
		t.Fatalf("ddg.BuildOpts: %v", err)
	}
	rep, err := core.AnalyzeCtx(context.Background(), g, copts)
	if err != nil {
		t.Fatalf("core.AnalyzeCtx: %v", err)
	}
	return rep
}

// referenceRegions analyzes every dynamic region of the loop on line the
// paper-literal way: slice the captured trace at the region's bounds, build
// the region's graph, and run the reference on it.
func referenceRegions(t testing.TB, tr *trace.Trace, line int, dopts ddg.Options, copts core.Options) []pipeline.RegionReport {
	t.Helper()
	regions := tr.Regions(tr.Module.LoopByLine(line).ID)
	out := make([]pipeline.RegionReport, len(regions))
	for i, r := range regions {
		sub := tr.Slice(r)
		out[i] = pipeline.RegionReport{Index: i, Events: sub.Len(), Report: referenceReport(t, sub, dopts, copts)}
	}
	return out
}

// paperKernels are the programs behind Tables 1–3 and Listings 1–2.
func paperKernels() []kernels.Kernel {
	ks := []kernels.Kernel{kernels.Listing1(16), kernels.Listing2(16),
		kernels.GaussSeidel(32, 2), kernels.PDESolver(16, 4)}
	for _, p := range kernels.UTDSP() {
		ks = append(ks, p.Array, p.Pointer)
	}
	for _, b := range kernels.SPEC() {
		ks = append(ks, b.Kernel)
	}
	return ks
}

// smallPaperKernels are the Table 2/3 and Listing programs, small enough to
// run the reference under every option combination.
func smallPaperKernels() []kernels.Kernel {
	ks := []kernels.Kernel{kernels.Listing1(12), kernels.Listing2(12),
		kernels.GaussSeidel(12, 2), kernels.PDESolver(8, 2)}
	for _, p := range kernels.UTDSP() {
		ks = append(ks, p.Array, p.Pointer)
	}
	return ks
}

// TestWholeProgramMatchesReference: the kernel's whole-trace report — what
// `vectrace analyze` prints without -line — is DeepEqual to the graph
// reference, for the paper kernels and the random programs, with and
// without reduction relaxation, under every graph-option variant. The SPEC
// kernels, the largest, run the default graph options only.
func TestWholeProgramMatchesReference(t *testing.T) {
	type program struct{ name, src string }
	var all, small []program
	for _, k := range paperKernels() {
		all = append(all, program{k.Name, k.Source})
	}
	for _, k := range smallPaperKernels() {
		small = append(small, program{k.Name, k.Source})
	}
	for seed := int64(0); seed < 12; seed++ {
		p := program{fmt.Sprintf("rand%d", seed), generateProgram(seed)}
		all = append(all, p)
		small = append(small, p)
	}
	doptsVariants := []ddg.Options{{IncludeAntiOutput: true}, {IncludeControl: true}, {CharacterizeInts: true}}
	check := func(t *testing.T, p program, dopts ddg.Options) {
		_, _, tr, err := pipeline.CompileAndTrace(p.name+".c", p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		g, err := ddg.BuildOpts(tr, dopts)
		if err != nil {
			t.Fatalf("%s: ddg.BuildOpts: %v", p.name, err)
		}
		for _, copts := range []core.Options{{}, {RelaxReductions: true}} {
			got, err := pipeline.AnalyzeRegion(context.Background(), tr, dopts, copts)
			if err != nil {
				t.Fatalf("%s %+v %+v: %v", p.name, dopts, copts, err)
			}
			want, err := core.AnalyzeCtx(context.Background(), g, copts)
			if err != nil {
				t.Fatalf("%s %+v %+v: reference: %v", p.name, dopts, copts, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v %+v: kernel report differs from the reference\nkernel:\n%sreference:\n%s",
					p.name, dopts, copts, got, want)
			}
		}
	}
	for _, p := range all {
		check(t, p, ddg.Options{})
	}
	for _, p := range small {
		for _, dopts := range doptsVariants {
			check(t, p, dopts)
		}
	}
}

// TestRelaxedReductionMatchesReference is the relaxation port's
// differential: per region of every loop, the kernel's two-pass relaxed
// analysis equals the reference's graph-wide accumulator cuts, on the
// random programs and on the dot-product round trip s = s + a[i]*b[i].
func TestRelaxedReductionMatchesReference(t *testing.T) {
	const dot = `
double a[64]; double b[64]; double s;
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; b[i] = 0.25 * i; }
  for (i = 0; i < 64; i++) { s = s + a[i] * b[i]; }
  print(s);
}`
	programs := map[string]string{"dot": dot}
	for seed := int64(300); seed < 312; seed++ {
		programs[fmt.Sprintf("rand%d", seed)] = generateProgram(seed)
	}
	relax := core.Options{RelaxReductions: true}
	for name, src := range programs {
		mod, _, tr, err := pipeline.CompileAndTrace(name+".c", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, line := range loopLines(mod) {
			got, err := analyzeAll(context.Background(), pipeline.Source{Module: mod}, line, relax)
			if err != nil {
				t.Fatalf("%s line %d: %v", name, line, err)
			}
			if want := referenceRegions(t, tr, line, ddg.Options{}, relax); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s line %d: relaxed region reports differ from the reference\nprogram:\n%s", name, line, src)
			}
		}
	}
}

// padSource prepends a global of pad bytes to the first source line, so
// line numbers stay put while every global and the 16-aligned stack base
// move by pad.
func padSource(src string, pad int) string {
	return fmt.Sprintf("double zzpad[%d]; ", pad/8) + src
}

// TestMetamorphicBaseShift: the analysis depends on addresses only through
// their differences and order (§3.2/§3.3 strides, Algorithm 1's memory
// dependences), so shifting every address by a multiple of 16 bytes leaves
// each report unchanged. The small paper kernels and the random programs
// take pads of 16, 48 and 8192 bytes; the full-size paper kernels one pad.
func TestMetamorphicBaseShift(t *testing.T) {
	type program struct {
		name, src string
		pads      []int
	}
	var programs []program
	for _, k := range smallPaperKernels() {
		programs = append(programs, program{k.Name, k.Source, []int{16, 48, 8192}})
	}
	for seed := int64(0); seed < 12; seed++ {
		programs = append(programs, program{fmt.Sprintf("rand%d", seed), generateProgram(seed), []int{16, 48, 8192}})
	}
	for _, k := range paperKernels() {
		programs = append(programs, program{k.Name, k.Source, []int{48}})
	}
	for _, p := range programs {
		_, _, tr, err := pipeline.CompileAndTrace(p.name+".c", p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		want, err := pipeline.AnalyzeRegion(context.Background(), tr, ddg.Options{}, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, pad := range p.pads {
			_, _, ptr, err := pipeline.CompileAndTrace(p.name+".c", padSource(p.src, pad))
			if err != nil {
				t.Fatalf("%s pad %d: %v", p.name, pad, err)
			}
			got, err := pipeline.AnalyzeRegion(context.Background(), ptr, ddg.Options{}, core.Options{})
			if err != nil {
				t.Fatalf("%s pad %d: %v", p.name, pad, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: a %d-byte address shift changed the report\nshifted:\n%soriginal:\n%s",
					p.name, pad, got, want)
			}
		}
	}
}

// TestMetamorphicDOALLScaling: in a DOALL loop every instance of the
// multiply is independent, so Algorithm 1 puts all of them in one
// partition and doubling the trip count doubles AvgConcurrency.
func TestMetamorphicDOALLScaling(t *testing.T) {
	concurrency := func(n int) float64 {
		src := fmt.Sprintf(`double A[%[1]d]; double B[%[1]d]; double c;
void main() {
  int i;
  c = 1.5;
  for (i = 0; i < %[1]d; i++) { B[i] = i; }
  for (i = 0; i < %[1]d; i++) { A[i] = B[i] * c; }
  print(A[1]);
}`, n)
		mod, err := pipeline.Compile("doall.c", src)
		if err != nil {
			t.Fatal(err)
		}
		regs, err := pipeline.Analyze(context.Background(), pipeline.Source{Module: mod}, pipeline.Spec{Line: 6, Instances: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(regs[0].Report.PerInstr[0].Text, "mul") {
			t.Fatalf("n=%d: analyzed %q, want the multiply", n, regs[0].Report.PerInstr[0].Text)
		}
		return regs[0].Report.AvgConcurrency
	}
	for _, n := range []int{8, 32, 100} {
		small, large := concurrency(n), concurrency(2*n)
		if small != float64(n) || large != 2*small {
			t.Fatalf("trip count %d: AvgConcurrency %.1f, doubled %.1f; want %d and %d", n, small, large, n, 2*n)
		}
	}
}
