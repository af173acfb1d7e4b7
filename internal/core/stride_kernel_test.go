package core_test

// Differential tests of the stream kernel's stats-only stride stage against
// the paper-literal §3.2/§3.3 scans the graph reference runs: on any keys
// and any partitioning, both must report identical StrideStats.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/example/vectrace/internal/core"
)

// randStrideCase draws one key set and a random partitioning of it. Keys
// walk a per-component base and step (zero, negative, unit, non-unit or
// odd), indexed by a small range so duplicates are common; per-component
// noise breaks strides, and some results are never stored (address 0).
func randStrideCase(r *rand.Rand) (keys [][3]int64, parts []core.Partition, elem int64) {
	elem = []int64{4, 8}[r.Intn(2)]
	n := 1 + r.Intn(40)
	steps := []int64{0, elem, -elem, 2 * elem, 3 * elem, 5 * elem, 1}
	var base, step [3]int64
	for c := range base {
		base[c] = int64(r.Intn(5)-2) * 64
		step[c] = steps[r.Intn(len(steps))]
	}
	span := 1 + r.Intn(2*n)
	keys = make([][3]int64, n)
	for i := range keys {
		j := int64(r.Intn(span))
		for c := range keys[i] {
			keys[i][c] = base[c] + step[c]*j
			if r.Intn(8) == 0 {
				keys[i][c] += int64(r.Intn(3)-1) * elem
			}
		}
		if r.Intn(10) == 0 {
			keys[i][0] = 0
		}
	}
	group := make([]int, n)
	groups := 1 + r.Intn(n)
	for i := range group {
		group[i] = r.Intn(groups)
	}
	return keys, partitionBy(group, groups), elem
}

// partitionBy groups instance handles 0..len(group)-1 by group ID, members
// in handle order, skipping empty groups.
func partitionBy(group []int, groups int) []core.Partition {
	var parts []core.Partition
	for g := 0; g < groups; g++ {
		var nodes []int32
		for i, gi := range group {
			if gi == g {
				nodes = append(nodes, int32(i))
			}
		}
		if len(nodes) > 0 {
			parts = append(parts, core.Partition{Timestamp: int32(len(parts) + 1), Nodes: nodes})
		}
	}
	return parts
}

// checkStrideStage fails t unless both stride stages agree, and returns the
// agreed §3.3 stats.
func checkStrideStage(t *testing.T, st *core.StrideStage, keys [][3]int64, parts []core.Partition, elem int64) core.StrideStats {
	t.Helper()
	ku, kn := st.Kernel(keys, parts, elem)
	lu, ln := st.Literal(keys, parts, elem)
	if ku != lu || kn != ln {
		t.Fatalf("elem %d keys %v parts %v:\nkernel  unit %+v non %+v\nliteral unit %+v non %+v",
			elem, keys, parts, ku, kn, lu, ln)
	}
	return kn
}

// TestStrideStatsMatchesLiteralScan compares the two stride stages over
// 100k random key sets, with one scratch reused throughout as in a kernel.
func TestStrideStatsMatchesLiteralScan(t *testing.T) {
	cases := 100_000
	if testing.Short() {
		cases = 10_000
	}
	r := rand.New(rand.NewSource(20))
	var st core.StrideStage
	var nonUnit int
	for i := 0; i < cases; i++ {
		keys, parts, elem := randStrideCase(r)
		if non := checkStrideStage(t, &st, keys, parts, elem); non.Subpartitions > 0 {
			nonUnit++
		}
	}
	// The generator must reach the §3.3 stage often, or the test proves
	// little about the chain walk.
	if nonUnit < cases/10 {
		t.Fatalf("only %d of %d cases formed a non-unit subpartition", nonUnit, cases)
	}
}

// fuzzStrideCase decodes fuzz input: byte 0 picks the element size, then
// each instance takes four bytes, a partition ID and three signed key
// components in element units, where -128 and 127 stand for the int64
// extremes so wrapping stride arithmetic is covered too.
func fuzzStrideCase(data []byte) (keys [][3]int64, parts []core.Partition, elem int64) {
	if len(data) == 0 {
		return nil, nil, 8
	}
	elem = 4 << (data[0] & 1)
	data = data[1:]
	var group []int
	for ; len(data) >= 4 && len(keys) < 256; data = data[4:] {
		var k [3]int64
		for c := range k {
			switch v := int8(data[1+c]); v {
			case math.MinInt8:
				k[c] = math.MinInt64
			case math.MaxInt8:
				k[c] = math.MaxInt64
			default:
				k[c] = int64(v) * elem
			}
		}
		keys = append(keys, k)
		group = append(group, int(data[0]&7))
	}
	return keys, partitionBy(group, 8), elem
}

// FuzzStrideStats checks the kernel's stride stage against the literal
// scans on fuzzer-chosen keys and partitionings.
func FuzzStrideStats(f *testing.F) {
	seed := func(elem byte, insts ...[4]int8) []byte {
		b := []byte{elem}
		for _, in := range insts {
			for _, v := range in {
				b = append(b, byte(v))
			}
		}
		return b
	}
	f.Add(seed(1, [4]int8{0, 0, 1, 2}, [4]int8{0, 1, 2, 3}, [4]int8{0, 2, 3, 4}))
	f.Add(seed(0, [4]int8{0, 3, 0, 0}, [4]int8{0, 0, 0, 0}, [4]int8{0, 6, 0, 0}, [4]int8{0, 0, 0, 0}, [4]int8{0, 9, 0, 0}))
	f.Add(seed(1, [4]int8{1, 127, 0, 0}, [4]int8{1, -128, 0, 0}, [4]int8{1, 0, 0, 0}))
	var st core.StrideStage
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, parts, elem := fuzzStrideCase(data)
		checkStrideStage(t, &st, keys, parts, elem)
	})
}
