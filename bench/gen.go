package main

// The input generator. Every workload input is MiniC text emitted here from a
// seed; the product under test only ever sees the generated files. Programs
// come from five templates — 2-D stencil, unit-stride DOALL, array-of-structs
// non-unit stride, reduction, and indirect gather — and each template varies
// the properties the analysis cost depends on: candidate instructions per
// region (the stream kernel's tile width), the number of regions, and the
// working set relative to the kernel's 1 KiB shadow pages.
//
// Sizes are solved against a dynamic-instruction budget with a static cost
// model of the front end's lowering (see cost*). The model never runs the
// product, so the inputs for a seed are identical on every commit.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Program is one generated MiniC input plus the facts the generator designed
// into it.
type Program struct {
	Name     string // file stem, unique within a set
	Template string
	Source   string
	Line     int   // line of the target loop's "for" keyword
	Cands    int   // FP candidate instructions in the target loop
	Regions  int   // dynamic executions of the target loop
	Events   int64 // estimated dynamic instructions of the whole program
	WSBytes  int64 // bytes of arrays the target loop touches
}

// Templates lists the generator's templates in a fixed order.
var Templates = []string{"stencil", "doall", "aos", "reduction", "gather"}

// shape is one program request. The generator meets events closely, keeps
// each region at or below maxRegion events, and lands the working set near
// wsKiB (closer the more regions the budget allows).
type shape struct {
	tmpl      string
	cands     int
	wsKiB     int
	events    int64
	maxRegion int64
	inner     bool // stencil only: target the column loop, not the row loop
}

// analyzeSlots is the fixed design of the analyze workloads' program set:
// two programs per template, one narrow and one wide, with budgets as shares
// of the set's total. A seed moves every working set by up to ±10% and
// redraws coefficients, term order, operand choice and index hashes, so
// different seeds give different programs while the set's total cost —
// events, and the tile widths that set the kernel's cost per event — stays
// put. The largest program holds 26% of the budget (7.8M events at full size):
// it is what the live path's in-memory trace is measured against.
var analyzeSlots = []struct {
	tmpl  string
	share float64
	cands int
	wsKiB int
	inner bool
}{
	{"stencil", 0.26, 9, 12, false},
	{"stencil", 0.08, 33, 64, true},
	{"doall", 0.12, 6, 128, false},
	{"doall", 0.10, 64, 12, false},
	{"aos", 0.08, 9, 56, false},
	{"aos", 0.08, 23, 20, false},
	{"reduction", 0.07, 4, 64, false},
	{"reduction", 0.07, 24, 12, false},
	{"gather", 0.07, 6, 112, false},
	{"gather", 0.07, 14, 44, false},
}

// AnalyzeSet returns the program set of the analyze workloads for seed,
// scaled to about events dynamic instructions in total. No region exceeds
// 1/256 of the total, so the offline path's per-region memory stays small
// next to the whole trace the live path holds.
func AnalyzeSet(seed, events int64) []Program {
	r := rand.New(rand.NewSource(seed))
	out := make([]Program, 0, len(analyzeSlots))
	for i, s := range analyzeSlots {
		ws := int(math.Round(float64(s.wsKiB) * (0.9 + 0.2*r.Float64())))
		p := generate(r, shape{
			tmpl:      s.tmpl,
			cands:     s.cands,
			wsKiB:     max(ws, 1),
			events:    int64(float64(events) * s.share),
			maxRegion: max(events/256, 1000),
			inner:     s.inner,
		})
		p.Name = fmt.Sprintf("p%02d-%s", i, s.tmpl)
		out = append(out, p)
	}
	return out
}

// ServicePrograms returns n small programs for the service's job mix, with
// 4k–30k dynamic instructions, 3–16 candidates and a working set of 2–15
// KiB. Each property takes a fixed spread of values — sizes at the n
// quantiles of the range, templates in turn — that the seed deals out in a
// random order, so every seed's mix costs the same to serve.
func ServicePrograms(r *rand.Rand, n int) []Program {
	const lo, hi = 4_000, 30_000
	shapes := make([]shape, n)
	for i := range shapes {
		ev := lo + int64(float64(hi-lo)*(float64(i)+0.5)/float64(n))
		shapes[i] = shape{events: ev, maxRegion: ev / 2}
	}
	deal := func(set func(sh *shape, k int), k int) {
		perm := r.Perm(n)
		for i, j := range perm {
			set(&shapes[j], i%k)
		}
	}
	deal(func(sh *shape, k int) { sh.tmpl = Templates[k] }, len(Templates))
	deal(func(sh *shape, k int) { sh.cands = 3 + k }, 14)
	deal(func(sh *shape, k int) { sh.wsKiB = 2 + k }, 14)
	deal(func(sh *shape, k int) { sh.inner = k == 1 }, 2)
	out := make([]Program, n)
	for i, sh := range shapes {
		out[i] = generate(r, sh)
		out[i].Name = fmt.Sprintf("s%04d", i)
	}
	return out
}

// A plan is a template instance with its structure drawn but its size open:
// n scales the arrays (and so the region length), reps the number of
// regions. cost is the static estimate of the whole program's dynamic
// instructions; emit writes the source and returns it with the target line.
type plan struct {
	n0      int // n that meets the requested working set
	nMin    int
	cands   int
	regions func(n, reps int) int
	ws      func(n int) int64
	cost    func(n, reps int) int64
	emit    func(n, reps int) (string, int)
	// rowRegions marks a plan whose regions are single rows of a
	// repetition, so the region cap does not bound the repetitions.
	rowRegions bool
}

func generate(r *rand.Rand, sh shape) Program {
	var p plan
	switch sh.tmpl {
	case "stencil":
		p = planStencil(r, sh)
	case "doall":
		p = planDoall(r, sh)
	case "aos":
		p = planAoS(r, sh)
	case "reduction":
		p = planReduction(r, sh)
	case "gather":
		p = planGather(r, sh)
	default:
		panic("gen: unknown template " + sh.tmpl)
	}
	// Repetitions first: as many as the budget holds at the requested
	// working set, enough that no region exceeds the cap, and at least two.
	// Then n is solved so the whole program meets the budget; cost is
	// monotone in n.
	fixed := p.cost(p.n0, 0)
	perRep := p.cost(p.n0, 1) - fixed
	reps := int(math.Round(float64(sh.events-fixed) / float64(perRep)))
	reps = max(reps, 2)
	if !p.rowRegions {
		reps = max(reps, int((sh.events+sh.maxRegion-1)/sh.maxRegion))
	}
	lo, hi := p.nMin, max(p.n0, p.nMin)
	for p.cost(hi, reps) < sh.events && hi < 1<<24 {
		hi *= 2
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cost(mid, reps) < sh.events {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := lo
	if n > p.nMin && sh.events-p.cost(n-1, reps) < p.cost(n, reps)-sh.events {
		n--
	}
	text, line := p.emit(n, reps)
	return Program{Template: sh.tmpl, Source: text, Line: line, Cands: p.cands,
		Regions: p.regions(n, reps), Events: p.cost(n, reps), WSBytes: p.ws(n)}
}

// Lowering cost model, in dynamic IR instructions. A local scalar read or
// write is faddr+load/store; an array element adds gaddr, one ptradd per
// subscript or field, and the access; a literal is an immediate; each
// counted for-loop iteration costs loop.iter, the compare-and-branch, the
// increment and the back branch. Estimates land within a few percent of the
// interpreter's step count, which the tests check.
const (
	costVar      = 2
	costIterLoop = 10
	costLoopOpen = 9
)

func costIdx(offset int) int {
	if offset == 0 {
		return costVar
	}
	return costVar + 1
}

func cost1D(offset int) int { return 3 + costIdx(offset) }
func cost2D(di, dj int) int { return 4 + costIdx(di) + costIdx(dj) }
func costField() int        { return 4 + costVar }
func costGather() int       { return 3 + cost1D(0) }

// loopCost is one execution of a counted loop of trips iterations.
func loopCost(trips int, body int64) int64 {
	return costLoopOpen + int64(trips)*(body+costIterLoop)
}

// src accumulates program text and tracks the current line number, so a
// template can record the line of its target loop as it writes it.
type src struct {
	b    strings.Builder
	line int
}

func (s *src) printf(format string, args ...any) {
	text := fmt.Sprintf(format, args...)
	s.b.WriteString(text)
	s.line += strings.Count(text, "\n")
}

// at returns the 1-based number of the line about to be written.
func (s *src) at() int { return s.line + 1 }

// coef returns a seeded literal in [lo, hi) with four decimals.
func coef(r *rand.Rand, lo, hi float64) string {
	return fmt.Sprintf("%.4f", lo+(hi-lo)*r.Float64())
}

// termsSplit divides cands candidates into statements of sums of products,
// one multiply and one add per term: a statement of k terms has 2k−1
// candidates. At most 8 terms go into one statement.
func termsSplit(cands int) []int {
	total := max((cands+1)/2, 1)
	stmts := (total + 7) / 8
	out := make([]int, stmts)
	for i := range out {
		out[i] = total / stmts
		if i < total%stmts {
			out[i]++
		}
	}
	return out
}

// stencilPoints lists the 5×5 neighbourhood in order of distance from the
// centre.
var stencilPoints = func() [][2]int {
	var pts [][2]int
	for d := 0; d <= 8; d++ {
		for di := -2; di <= 2; di++ {
			for dj := -2; dj <= 2; dj++ {
				if di*di+dj*dj == d {
					pts = append(pts, [2]int{di, dj})
				}
			}
		}
	}
	return pts
}()

// planStencil is an in-place 2-D Gauss-Seidel-style sweep over an n×n grid,
// repeated reps times. The target is the row loop (reps regions of n² work)
// or, with inner set, the column loop (reps·n small regions). Each stencil
// point is one multiply plus one add: 2p−1 candidates for p points.
func planStencil(r *rand.Rand, sh shape) plan {
	p := min(max((sh.cands+1)/2, 2), len(stencilPoints))
	pts := append([][2]int(nil), stencilPoints[:p]...)
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	rad := 0
	var terms []string
	body := int64(cost2D(0, 0) + 1 + p - 1) // store address, store, adds
	for _, pt := range pts {
		rad = max(rad, abs(pt[0]), abs(pt[1]))
		terms = append(terms, fmt.Sprintf("%s * A[i%s][j%s]", coef(r, 0.5/float64(p), 1.5/float64(p)), off(pt[0]), off(pt[1])))
		body += int64(cost2D(pt[0], pt[1]) + 1)
	}
	scale, base := coef(r, 0.0005, 0.002), coef(r, 0.5, 1.5)
	row := func(n int) int64 { return loopCost(n-2*rad, body) }
	sweep := func(n int) int64 { return loopCost(n-2*rad, row(n)) }
	init := func(n int) int64 { return loopCost(n, loopCost(n, int64(cost2D(0, 0)+1+2*costVar+6))) }
	return plan{
		n0:    max(int(math.Sqrt(float64(sh.wsKiB)*1024/8)), 2*rad+4),
		nMin:  2*rad + 4,
		cands: 2*p - 1,
		regions: func(n, reps int) int {
			if sh.inner {
				return reps * (n - 2*rad)
			}
			return reps
		},
		ws:         func(n int) int64 { return int64(n) * int64(n) * 8 },
		cost:       func(n, reps int) int64 { return init(n) + loopCost(reps, sweep(n)) },
		rowRegions: sh.inner,
		emit: func(n, reps int) (string, int) {
			var s src
			s.printf("double A[%d][%d];\n\nvoid main() {\n  int t;\n  int i;\n  int j;\n", n, n)
			s.printf("  for (i = 0; i < %d; i++) {\n    for (j = 0; j < %d; j++) {\n", n, n)
			s.printf("      A[i][j] = %s * (i + 2 * j) + %s;\n    }\n  }\n", scale, base)
			s.printf("  for (t = 0; t < %d; t++) {\n", reps)
			line := s.at()
			s.printf("    for (i = %d; i < %d; i++) {\n", rad, n-rad)
			if sh.inner {
				line = s.at()
			}
			s.printf("      for (j = %d; j < %d; j++) {\n", rad, n-rad)
			s.printf("        A[i][j] = %s;\n      }\n    }\n  }\n", strings.Join(terms, " + "))
			s.printf("  print(A[%d][%d]);\n  print(A[%d][%d]);\n}\n", n/2, n/2, rad, n-rad-1)
			return s.b.String(), line
		},
	}
}

func off(d int) string {
	switch {
	case d > 0:
		return fmt.Sprintf(" + %d", d)
	case d < 0:
		return fmt.Sprintf(" - %d", -d)
	}
	return ""
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// planArrays is the shared shape of the one-dimensional templates: reps
// repetitions of a loop over n elements whose body costs body per
// iteration, after an initialization loop costing initBody per element over
// initN(n) elements. before and after are the per-repetition statements
// around the target loop.
func planArrays(sh shape, cands, bytesPerN int, body, initBody, perRep int64, initN func(n int) int, emit func(n, reps int) (string, int)) plan {
	return plan{
		n0:      max(int(int64(sh.wsKiB)*1024/int64(bytesPerN)), 8),
		nMin:    8,
		cands:   cands,
		regions: func(n, reps int) int { return reps },
		ws:      func(n int) int64 { return int64(n) * int64(bytesPerN) },
		cost: func(n, reps int) int64 {
			return loopCost(initN(n), initBody) + loopCost(reps, loopCost(n, body)+perRep)
		},
		emit: emit,
	}
}

// planDoall is a unit-stride DOALL loop whose statements combine input
// arrays X0..Xk into output arrays Y0..Ys, repeated reps times.
func planDoall(r *rand.Rand, sh shape) plan {
	split := termsSplit(sh.cands)
	inputs := min(4+len(split), 12)
	var inits, stmts []string
	var initBody, body int64
	cands := 0
	for k := 0; k < inputs; k++ {
		inits = append(inits, fmt.Sprintf("    X%d[i] = %s * i + %s;\n", k, coef(r, 0.001, 0.01), coef(r, 0.5, 2)))
		initBody += int64(cost1D(0) + costVar + 3)
	}
	for k, terms := range split {
		var ts []string
		for j := 0; j < terms; j++ {
			ts = append(ts, fmt.Sprintf("X%d[i] * %s", r.Intn(inputs), coef(r, 0.1, 2)))
			body += int64(cost1D(0) + 1)
		}
		body += int64(terms - 1 + cost1D(0))
		cands += 2*terms - 1
		stmts = append(stmts, fmt.Sprintf("      Y%d[i] = %s;\n", k, strings.Join(ts, " + ")))
	}
	return planArrays(sh, cands, 8*(inputs+len(split)), body, initBody, 0, func(n int) int { return n },
		func(n, reps int) (string, int) {
			var s src
			for k := 0; k < inputs; k++ {
				s.printf("double X%d[%d];\n", k, n)
			}
			for k := range split {
				s.printf("double Y%d[%d];\n", k, n)
			}
			s.printf("\nvoid main() {\n  int r;\n  int i;\n  for (i = 0; i < %d; i++) {\n", n)
			s.printf("%s  }\n  for (r = 0; r < %d; r++) {\n", strings.Join(inits, ""), reps)
			line := s.at()
			s.printf("    for (i = 0; i < %d; i++) {\n%s    }\n  }\n", n, strings.Join(stmts, ""))
			for k := range split {
				s.printf("  print(Y%d[%d]);\n", k, n/2)
			}
			s.printf("}\n")
			return s.b.String(), line
		})
}

// planAoS is a loop over an array of structs whose statements read and
// write fields of the same element: every access strides by the struct
// size, so nothing is unit stride.
func planAoS(r *rand.Rand, sh shape) plan {
	split := termsSplit(sh.cands)
	fields := min(max(4, len(split)+3), 16)
	var inits, stmts []string
	var initBody, body int64
	cands := 0
	for f := 0; f < fields; f++ {
		inits = append(inits, fmt.Sprintf("    P[i].f%d = %s * i + %s;\n", f, coef(r, 0.001, 0.01), coef(r, 0.5, 2)))
		initBody += int64(costField() + costVar + 3)
	}
	for k, terms := range split {
		var ts []string
		for j := 0; j < terms; j++ {
			ts = append(ts, fmt.Sprintf("P[i].f%d * %s", len(split)+r.Intn(fields-len(split)), coef(r, 0.1, 1)))
			body += int64(costField() + 1)
		}
		body += int64(terms - 1 + costField())
		cands += 2*terms - 1
		stmts = append(stmts, fmt.Sprintf("      P[i].f%d = %s;\n", k, strings.Join(ts, " + ")))
	}
	return planArrays(sh, cands, 8*fields, body, initBody, 0, func(n int) int { return n },
		func(n, reps int) (string, int) {
			var s src
			s.printf("struct rec {")
			for f := 0; f < fields; f++ {
				s.printf(" double f%d;", f)
			}
			s.printf(" };\n\nstruct rec P[%d];\n\nvoid main() {\n  int r;\n  int i;\n", n)
			s.printf("  for (i = 0; i < %d; i++) {\n%s  }\n  for (r = 0; r < %d; r++) {\n", n, strings.Join(inits, ""), reps)
			line := s.at()
			s.printf("    for (i = 0; i < %d; i++) {\n%s    }\n  }\n  print(P[%d].f0);\n}\n", n, strings.Join(stmts, ""), n/2)
			return s.b.String(), line
		})
}

// planReduction accumulates dot products into local scalars; each
// accumulator is a loop-carried chain, the pattern the kernel's online
// reduction detection handles. Each term a·b adds a multiply and an add.
func planReduction(r *rand.Rand, sh shape) plan {
	terms := max(sh.cands/2, 1)
	accs := min(max(terms/3, 1), 8)
	inputs := min(accs+2, 10)
	var inits, stmts []string
	var initBody, body int64
	for k := 0; k < inputs; k++ {
		inits = append(inits, fmt.Sprintf("    X%d[i] = %s * i + %s;\n", k, coef(r, 0.0001, 0.001), coef(r, 0.1, 1)))
		initBody += int64(cost1D(0) + costVar + 3)
	}
	for a := 0; a < accs; a++ {
		k := terms / accs
		if a < terms%accs {
			k++
		}
		var ts []string
		for j := 0; j < k; j++ {
			ts = append(ts, fmt.Sprintf("X%d[i] * X%d[i]", r.Intn(inputs), r.Intn(inputs)))
			body += int64(2*cost1D(0) + 2)
		}
		body += 2 * costVar
		stmts = append(stmts, fmt.Sprintf("      s%d = s%d + %s;\n", a, a, strings.Join(ts, " + ")))
	}
	// Per repetition: reset each accumulator and fold it into out[a].
	perRep := int64(accs * (3*costVar + cost1D(0) + 2))
	return planArrays(sh, 2*terms, 8*inputs, body, initBody, perRep, func(n int) int { return n },
		func(n, reps int) (string, int) {
			var s src
			for k := 0; k < inputs; k++ {
				s.printf("double X%d[%d];\n", k, n)
			}
			s.printf("double out[%d];\n\nvoid main() {\n  int r;\n  int i;\n", accs)
			for a := 0; a < accs; a++ {
				s.printf("  double s%d = 0.0;\n", a)
			}
			s.printf("  for (i = 0; i < %d; i++) {\n%s  }\n  for (r = 0; r < %d; r++) {\n", n, strings.Join(inits, ""), reps)
			for a := 0; a < accs; a++ {
				s.printf("    s%d = 0.0;\n", a)
			}
			line := s.at()
			s.printf("    for (i = 0; i < %d; i++) {\n%s    }\n", n, strings.Join(stmts, ""))
			for a := 0; a < accs; a++ {
				s.printf("    out[%d] = out[%d] + s%d;\n", a, a, a)
			}
			s.printf("  }\n")
			for a := 0; a < accs; a++ {
				s.printf("  print(out[%d]);\n", a)
			}
			s.printf("}\n")
			return s.b.String(), line
		})
}

// planGather reads a table T through index arrays filled by a seeded affine
// hash, so load addresses jump irregularly. The table is as large as all
// other arrays together.
func planGather(r *rand.Rand, sh shape) plan {
	split := termsSplit(sh.cands)
	idxs := min(len(split)+1, 4)
	perN := 1 + idxs + len(split) // W, I*, Y* elements per n
	tableN := func(n int) int { return n * perN }
	type hash struct{ mul, add int }
	hashes := make([]hash, idxs)
	for k := range hashes {
		hashes[k] = hash{2*r.Intn(500) + 101, r.Intn(1 << 20)}
	}
	tScale, tBase := coef(r, 0.001, 0.01), coef(r, 0.5, 2)
	wBase, wScale := coef(r, 0.5, 1), coef(r, 0.0001, 0.001)
	initBody := int64(cost1D(0) + costVar + 3 + idxs*(cost1D(0)+costVar+4))
	var stmts []string
	var body int64
	cands := 0
	for k, terms := range split {
		var ts []string
		for j := 0; j < terms; j++ {
			ts = append(ts, fmt.Sprintf("T[I%d[i]] * %s", r.Intn(idxs), coef(r, 0.1, 1)))
			body += int64(costGather() + 1)
		}
		// Y_k[i] = W[i] * (sum): one more multiply.
		body += int64(cost1D(0) + 1 + terms - 1 + cost1D(0))
		cands += 2 * terms
		stmts = append(stmts, fmt.Sprintf("      Y%d[i] = W[i] * (%s);\n", k, strings.Join(ts, " + ")))
	}
	p := planArrays(sh, cands, 2*8*perN, body, initBody, 0, func(n int) int { return n },
		func(n, reps int) (string, int) {
			m := tableN(n)
			var s src
			s.printf("double T[%d];\ndouble W[%d];\n", m, n)
			for k := 0; k < idxs; k++ {
				s.printf("int I%d[%d];\n", k, n)
			}
			for k := range split {
				s.printf("double Y%d[%d];\n", k, n)
			}
			s.printf("\nvoid main() {\n  int r;\n  int i;\n")
			s.printf("  for (i = 0; i < %d; i++) {\n    T[i] = %s * i + %s;\n  }\n", m, tScale, tBase)
			s.printf("  for (i = 0; i < %d; i++) {\n    W[i] = %s + %s * i;\n", n, wBase, wScale)
			for k, h := range hashes {
				// An odd multiplier modulo the table size scatters consecutive i.
				s.printf("    I%d[i] = (i * %d + %d) %% %d;\n", k, h.mul, h.add%m, m)
			}
			s.printf("  }\n  for (r = 0; r < %d; r++) {\n", reps)
			line := s.at()
			s.printf("    for (i = 0; i < %d; i++) {\n%s    }\n  }\n", n, strings.Join(stmts, ""))
			for k := range split {
				s.printf("  print(Y%d[%d]);\n", k, n/2)
			}
			s.printf("}\n")
			return s.b.String(), line
		})
	cost := p.cost
	p.cost = func(n, reps int) int64 {
		return cost(n, reps) + loopCost(tableN(n), int64(cost1D(0)+costVar+3))
	}
	return p
}
