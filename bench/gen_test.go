package main

import (
	"context"
	"math/rand"
	"testing"

	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/lower"
	"github.com/example/vectrace/internal/parser"
	"github.com/example/vectrace/internal/sema"
	"github.com/example/vectrace/internal/trace"
)

// smallEvents keeps the analyze set small enough to execute in a test.
const smallEvents = 600_000

func TestGeneratorDeterministic(t *testing.T) {
	a, b := AnalyzeSet(7, smallEvents), AnalyzeSet(7, smallEvents)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("program %d differs between two generations from seed 7", i)
		}
	}
	c := AnalyzeSet(8, smallEvents)
	same := 0
	for i := range a {
		if a[i].Source == c[i].Source {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 generated the same program set")
	}
	s1 := ServicePrograms(rand.New(rand.NewSource(3)), 40)
	s2 := ServicePrograms(rand.New(rand.NewSource(3)), 40)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("service program %d differs between two generations from seed 3", i)
		}
	}
}

func compileProgram(t *testing.T, p Program) *ir.Module {
	t.Helper()
	prog, err := parser.Parse(p.Name+".c", p.Source)
	if err != nil {
		t.Fatalf("%s: %v\n%s", p.Name, err, p.Source)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("%s: %v\n%s", p.Name, err, p.Source)
	}
	mod, err := lower.Lower(prog, info)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return mod
}

// TestTemplatesMeetTheirDesign executes generated programs of every
// template and checks what the generator promised: regions on the target
// line, as many as designed, each with the designed candidate count, and a
// dynamic-instruction count near the estimate.
func TestTemplatesMeetTheirDesign(t *testing.T) {
	progs := AnalyzeSet(1, smallEvents)
	progs = append(progs, ServicePrograms(rand.New(rand.NewSource(1)), 10)...)
	seen := map[string]bool{}
	for _, p := range progs {
		seen[p.Template] = true
		mod := compileProgram(t, p)
		lm := mod.LoopByLine(p.Line)
		if lm == nil {
			t.Fatalf("%s (%s): no loop on target line %d", p.Name, p.Template, p.Line)
		}
		if got := len(mod.CandidateIDs(lm.ID)); got != p.Cands {
			t.Errorf("%s (%s): %d candidates in the target loop, designed %d", p.Name, p.Template, got, p.Cands)
		}
		sink := &interp.TraceSink{}
		res, err := interp.New(mod, interp.Config{Tracer: sink}).RunContext(context.Background(), "main")
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		tr := &trace.Trace{Module: mod, Events: make([]trace.Event, len(sink.Events))}
		for i, ev := range sink.Events {
			tr.Events[i] = trace.Event{ID: ev.ID, Addr: ev.Addr}
		}
		if got := len(tr.Regions(lm.ID)); got != p.Regions {
			t.Errorf("%s (%s): %d regions, designed %d", p.Name, p.Template, got, p.Regions)
		}
		if r := float64(res.Steps) / float64(p.Events); r < 0.9 || r > 1.1 {
			t.Errorf("%s (%s): %d dynamic instructions, estimated %d", p.Name, p.Template, res.Steps, p.Events)
		}
	}
	for _, tmpl := range Templates {
		if !seen[tmpl] {
			t.Errorf("template %s generated no program", tmpl)
		}
	}
}

// TestAnalyzeSetScales checks the set's budget and the region cap that
// keeps the offline path's memory far below a whole trace's.
func TestAnalyzeSetScales(t *testing.T) {
	const total = fullAnalyzeEvents
	var sum, largest int64
	for _, p := range AnalyzeSet(1, total) {
		sum += p.Events
		largest = max(largest, p.Events)
		if p.Events > 8_000_000 {
			t.Errorf("%s: %d events, above the 8M per-program cap", p.Name, p.Events)
		}
	}
	if r := float64(sum) / total; r < 0.95 || r > 1.05 {
		t.Errorf("set holds %d events, budget %d", sum, total)
	}
	if largest < total/5 {
		t.Errorf("largest program has %d events; the live path's memory is measured against it", largest)
	}
	// Working sets span from a few 1 KiB shadow pages to over a hundred.
	lo, hi := int64(1)<<62, int64(0)
	for _, p := range AnalyzeSet(1, total) {
		lo, hi = min(lo, p.WSBytes), max(hi, p.WSBytes)
	}
	if lo > 16<<10 || hi < 100<<10 {
		t.Errorf("working sets span %d to %d bytes, want from under 16 KiB to over 100 KiB", lo, hi)
	}
}
