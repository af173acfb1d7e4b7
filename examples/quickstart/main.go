// Quickstart: run the paper's full pipeline on its own running example
// (Listing 1) — compile a MiniC program, execute it under instrumentation,
// characterize each floating-point instruction's SIMD potential, and
// contrast Algorithm 1's partitions with a critical-path baseline on the
// dynamic data-dependence graph.
//
// The program prints the Figure 1 story: statement S1 (a recurrence) is
// serial, while statement S2 — which a critical-path analysis would fragment
// — decomposes into N-1 fully vectorizable partitions of size N.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
)

func main() {
	const n = 16
	k := kernels.Listing1(n)
	fmt.Println("Analyzing the paper's Listing 1:")
	fmt.Println(k.Source)

	// Compile → execute under instrumentation → capture the trace.
	mod, res, tr, err := pipeline.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d dynamic instructions (%d floating-point candidates)\n\n",
		res.Steps, res.FPOps)

	// Characterize each candidate instruction with Algorithm 1 + the
	// stride analyses, streaming the whole trace through the kernel.
	rep, err := pipeline.AnalyzeRegion(context.Background(), tr, ddg.Options{}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("per-instruction vectorization potential:")
	fmt.Print(rep.String())

	// The partition demo needs the dynamic data-dependence graph itself
	// (flow dependences only).
	g, err := ddg.Build(tr)
	if err != nil {
		log.Fatal(err)
	}

	// Zoom in on S2 and contrast with the Kumar-style baseline (Figure 1).
	line := k.LineOf("@S2")
	for _, id := range mod.CandidateIDs(-1) {
		if mod.InstrAt(id).Pos.Line != line {
			continue
		}
		parts := core.Partitions(g, id, core.Options{})
		kumar := baseline.PartitionsByTimestamp(g, id, baseline.KumarTimestamps(g))
		fmt.Printf("\nS2 (line %d):\n", line)
		fmt.Printf("  Algorithm 1:   %3d partitions (max size %d) — vector-sized groups\n",
			len(parts), maxPart(parts))
		fmt.Printf("  critical path: %3d partitions — the fragmentation Figure 1(a) shows\n",
			len(kumar))
	}
}

func maxPart(parts []core.Partition) int {
	m := 0
	for _, p := range parts {
		if len(p.Nodes) > m {
			m = len(p.Nodes)
		}
	}
	return m
}
