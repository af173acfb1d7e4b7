package core

import (
	"cmp"
	"slices"
	"sort"

	"github.com/example/vectrace/internal/ddg"
)

// Subpartition is a set of instances from one parallel partition that are
// independent AND access memory with a uniform stride: the viable unit of
// SIMD execution. For the unit-stride analysis the per-component strides are
// 0 (splat/constant) or the element size; for the non-unit analysis they are
// any per-component constants.
type Subpartition struct {
	// Nodes lists members sorted by memory-access tuple.
	Nodes []int32
	// Strides are the per-tuple-component strides (result, operand 1,
	// operand 2) in bytes; meaningful only when len(Nodes) > 1.
	Strides [3]int64
}

// Size returns the subpartition's member count — the achievable vector
// length for this group.
func (s *Subpartition) Size() int { return len(s.Nodes) }

// tupleFn resolves an instance handle to its memory-access tuple. The
// graph-backed analyses resolve node indices through tupleOf; tests resolve
// positions into a key array. The literal scans below only compare and
// subtract tuples, so any order-preserving handle space yields identical
// groupings.
type tupleFn func(n int32) [3]int64

// graphTuple adapts a materialized graph to the tupleFn interface.
func graphTuple(g *ddg.Graph) tupleFn {
	return func(n int32) [3]int64 { return tupleOf(&g.Nodes[n]) }
}

// sortByTupleFn orders instance handles by their memory-access tuples
// (lexicographically), the order in which uniform strides become adjacent.
func sortByTupleFn(tup tupleFn, nodes []int32) []int32 {
	sorted := make([]int32, len(nodes))
	copy(sorted, nodes)
	sort.SliceStable(sorted, func(i, j int) bool {
		a := tup(sorted[i])
		b := tup(sorted[j])
		for k := 0; k < 3; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return sorted
}

// UnitStrideSubpartitions implements §3.2: the instances of one parallel
// partition are sorted by operand addresses, then scanned; the current
// subpartition ends when a component stride is non-zero and non-unit, or
// differs from the previously observed stride for that component.
func UnitStrideSubpartitions(g *ddg.Graph, p *Partition, elemSize int64) []Subpartition {
	return unitStrideSubpartitionsFn(graphTuple(g), p.Nodes, elemSize)
}

func unitStrideSubpartitionsFn(tup tupleFn, nodes []int32, elemSize int64) []Subpartition {
	sorted := sortByTupleFn(tup, nodes)
	var out []Subpartition
	var cur Subpartition
	flush := func() {
		if len(cur.Nodes) > 0 {
			out = append(out, cur)
		}
		cur = Subpartition{}
	}
	for _, n := range sorted {
		if len(cur.Nodes) == 0 {
			cur.Nodes = append(cur.Nodes, n)
			continue
		}
		prev := tup(cur.Nodes[len(cur.Nodes)-1])
		t := tup(n)
		ok := true
		var strides [3]int64
		for k := 0; k < 3; k++ {
			d := t[k] - prev[k]
			if d != 0 && d != elemSize {
				ok = false
				break
			}
			strides[k] = d
		}
		if ok && len(cur.Nodes) > 1 {
			// The stride must match the previously observed stride.
			if strides != cur.Strides {
				ok = false
			}
		}
		if !ok {
			flush()
			cur.Nodes = append(cur.Nodes, n)
			continue
		}
		cur.Strides = strides
		cur.Nodes = append(cur.Nodes, n)
	}
	flush()
	return out
}

// NonUnitStrideSubpartitions implements §3.3: the singleton leftovers of the
// unit-stride analysis (instances of the same static instruction with the
// same timestamp) are sorted and scanned with a wait list. When the observed
// stride differs from the current subpartition's established stride, the
// instance is waitlisted and the scan continues; waitlisted instances are
// then re-scanned, each pass forming one subpartition, until none remain.
// Any constant per-component stride is accepted — including the non-unit
// strides whose presence signals a profitable data-layout transformation.
func NonUnitStrideSubpartitions(g *ddg.Graph, nodes []int32) []Subpartition {
	return nonUnitStrideSubpartitionsFn(graphTuple(g), nodes)
}

func nonUnitStrideSubpartitionsFn(tup tupleFn, nodes []int32) []Subpartition {
	pending := sortByTupleFn(tup, nodes)
	var out []Subpartition
	for len(pending) > 0 {
		var cur Subpartition
		var wait []int32
		established := false
		for _, n := range pending {
			if len(cur.Nodes) == 0 {
				cur.Nodes = append(cur.Nodes, n)
				continue
			}
			prev := tup(cur.Nodes[len(cur.Nodes)-1])
			t := tup(n)
			var strides [3]int64
			for k := 0; k < 3; k++ {
				strides[k] = t[k] - prev[k]
			}
			if !established {
				cur.Strides = strides
				established = true
				cur.Nodes = append(cur.Nodes, n)
				continue
			}
			if strides == cur.Strides {
				cur.Nodes = append(cur.Nodes, n)
			} else {
				wait = append(wait, n)
			}
		}
		out = append(out, cur)
		if len(wait) == len(pending) {
			// No progress (cannot happen: cur always takes ≥1), but guard
			// against pathological inputs.
			break
		}
		pending = wait
	}
	return out
}

// StrideStats summarizes one stride analysis over a set of partitions.
type StrideStats struct {
	// VecOps counts instances in non-singleton uniform-stride
	// subpartitions — the potentially vectorizable operations.
	VecOps int
	// Subpartitions counts the non-singleton subpartitions.
	Subpartitions int
	// SumSizes accumulates their sizes; AvgVecSize = SumSizes/Subpartitions.
	SumSizes int
}

// AvgVecSize returns the average non-singleton subpartition size, the
// paper's "Average Vec. Size" column.
func (s *StrideStats) AvgVecSize() float64 {
	if s.Subpartitions == 0 {
		return 0
	}
	return float64(s.SumSizes) / float64(s.Subpartitions)
}

// cmpKey orders memory-access tuples lexicographically.
func cmpKey(a, b [3]int64) int {
	for c := 0; c < 3; c++ {
		if r := cmp.Compare(a[c], b[c]); r != 0 {
			return r
		}
	}
	return 0
}

// strideScratch holds the stream kernel's reusable stride-stage buffers.
type strideScratch struct {
	keys    [][3]int64
	singles [][3]int64
	// next[i] points towards the first singleton at or after i that no
	// §3.3 pass has taken yet (path-compressed; len(singles) means none).
	next []int32
}

// stats is the stream kernel's stride stage: the same StrideStats as
// strideStatsFn over the same partitions, computed from the keys alone
// without building Subpartition node lists. tup is indexed by the
// partitions' instance handles and holds final tuples (artificial address
// 0 already substituted for never-stored results).
//
// Both literal scans depend only on the sorted key sequence, never on which
// of two equal keys comes first, so an unstable sort is exact, and none at
// all is needed when the partition's instances already arrive in key order
// (usual: trace order is address order in a unit-stride loop). The §3.2 scan
// emits its singleton leftovers in key order, so §3.3 needs no re-sort, and
// §3.3's wait-list passes become chain walks: see nonUnit.
func (s *strideScratch) stats(tup [][3]int64, parts []Partition, elemSize int64) (unit, non StrideStats) {
	for i := range parts {
		p := &parts[i]
		if len(p.Nodes) == 1 {
			continue // singleton parallel partition: not vectorizable, not waitlisted
		}
		keys := s.keys[:0]
		sorted := true
		for j, n := range p.Nodes {
			keys = append(keys, tup[n])
			if j > 0 && sorted && cmpKey(keys[j-1], keys[j]) > 0 {
				sorted = false
			}
		}
		if !sorted {
			slices.SortFunc(keys, cmpKey)
		}
		s.keys = keys
		s.singles = s.singles[:0]
		s.unitScan(keys, elemSize, &unit)
		if len(s.singles) >= 2 {
			s.nonUnit(s.singles, &non)
		}
	}
	return unit, non
}

// unitScan is §3.2's scan over sorted keys: it counts the non-singleton
// unit-stride subpartitions into st and collects the singletons, in key
// order, into s.singles.
func (s *strideScratch) unitScan(keys [][3]int64, elemSize int64, st *StrideStats) {
	flush := func(start, n int) {
		if n > 1 {
			st.VecOps += n
			st.Subpartitions++
			st.SumSizes += n
		} else {
			s.singles = append(s.singles, keys[start])
		}
	}
	start := 0
	var cur [3]int64
	for j := 1; j < len(keys); j++ {
		ok := true
		var d [3]int64
		for c := 0; c < 3; c++ {
			d[c] = keys[j][c] - keys[j-1][c]
			if d[c] != 0 && d[c] != elemSize {
				ok = false
				break
			}
		}
		if ok && j-start > 1 && d != cur {
			ok = false // the stride must match the previously observed one
		}
		if !ok {
			flush(start, j-start)
			start = j
			continue
		}
		cur = d
	}
	flush(start, len(keys)-start)
}

// nonUnit is §3.3's wait-list analysis over the §3.2 singletons, counting
// the non-singleton passes into st. The singletons are strictly increasing:
// equal keys are adjacent once sorted, and §3.2 puts a copy with the one
// before it (stride 0) unless that one ends a longer subpartition, so no key
// is left over twice. A literal pass takes the first pending key, then the
// next one, which fixes the stride d, then in order every key exactly d past
// the last one taken, waitlisting the rest. Only keys after the last one
// taken can extend the chain, and d is lexicographically positive, so last+d
// sorts among them: a binary search finds the key the scan would meet next
// (int64 wrap-around cannot break this: both sides compute the same wrapped
// target and search the same keys). Each key is taken once, so the walk is
// O(n log n) where the literal scan is O(n × passes).
func (s *strideScratch) nonUnit(keys [][3]int64, st *StrideStats) {
	n := int32(len(keys))
	next := s.next[:0]
	for j := int32(0); j <= n; j++ {
		next = append(next, j)
	}
	s.next = next
	// alive returns the first key at or after j not yet taken; exactly the
	// untaken keys point at themselves.
	alive := func(j int32) int32 {
		r := j
		for next[r] != r {
			r = next[r]
		}
		for next[j] != r {
			j, next[j] = next[j], r
		}
		return r
	}
	for head := alive(0); head < n; head = alive(head) {
		next[head] = head + 1
		at := alive(head + 1)
		if at == n {
			continue // a lone key: a singleton pass
		}
		next[at] = at + 1
		var d [3]int64
		for c := 0; c < 3; c++ {
			d[c] = keys[at][c] - keys[head][c]
		}
		size := 2
		for {
			want := keys[at]
			for c := 0; c < 3; c++ {
				want[c] += d[c]
			}
			j, found := slices.BinarySearchFunc(keys[at+1:], want, cmpKey)
			nx := at + 1 + int32(j)
			if !found || next[nx] != nx {
				break // no key d past the last one, or an earlier pass took it
			}
			at = nx
			next[at] = at + 1
			size++
		}
		st.VecOps += size
		st.Subpartitions++
		st.SumSizes += size
	}
}

// strideStats runs §3.2 and §3.3 over all partitions of one instruction on
// a materialized graph.
func strideStats(g *ddg.Graph, parts []Partition, elemSize int64, sc *instrScratch) (unit, non StrideStats) {
	return strideStatsFn(graphTuple(g), parts, elemSize, sc)
}

// strideStatsFn is strideStats over an arbitrary tuple resolver: the
// paper-literal scans, and the oracle for the stream kernel's stats-only
// stride stage (strideScratch.stats).
//
// Instances in singleton *parallel* partitions are serial and excluded
// from both analyses (only "instructions within a non-singleton parallel
// partition that did not belong in any unit-stride subpartition" are
// further analyzed). The §3.3 wait-list scan operates on instances "of the
// same static instruction, and with the same timestamp" — and since every
// singleton leftover of partition p carries exactly p's timestamp while
// distinct partitions carry distinct timestamps, that grouping is
// precisely per-source-partition. Processing leftovers partition by
// partition (partitions arrive in increasing timestamp order) therefore
// reproduces the former timestamp-keyed map grouping byte for byte while
// needing no per-node timestamp array, which the stream kernel does not
// have.
func strideStatsFn(tup tupleFn, parts []Partition, elemSize int64, sc *instrScratch) (unit, non StrideStats) {
	for i := range parts {
		p := &parts[i]
		if len(p.Nodes) == 1 {
			continue // singleton parallel partition: not vectorizable, not waitlisted
		}
		sc.singles = sc.singles[:0]
		for _, sp := range unitStrideSubpartitionsFn(tup, p.Nodes, elemSize) {
			if sp.Size() > 1 {
				unit.VecOps += sp.Size()
				unit.Subpartitions++
				unit.SumSizes += sp.Size()
			} else {
				sc.singles = append(sc.singles, sp.Nodes...)
			}
		}
		if len(sc.singles) < 2 {
			continue
		}
		for _, sp := range nonUnitStrideSubpartitionsFn(tup, sc.singles) {
			if sp.Size() > 1 {
				non.VecOps += sp.Size()
				non.Subpartitions++
				non.SumSizes += sp.Size()
			}
		}
	}
	return unit, non
}
