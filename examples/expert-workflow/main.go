// Expert workflow (paper §4.2): triage a program the way a vectorization
// expert would with the tool's help.
//
//  1. Profile and rank the hot loops by unexploited, cycle-weighted
//     potential, with each compiler rejection classified as statically
//     fixable (loop or layout transformation, better analysis) or
//     input-dependent.
//  2. Print the annotated source so the expert sees, line by line, where
//     the concurrency and the stride problems live.
//
// The sample program deliberately mixes the paper's archetypes: an
// already-vectorized stream, a column-major walk (layout problem), an
// indirection loop (input-dependent), and a reduction.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
)

const program = `
double grid[64][64];
double col[64];
double vals[256];
int idx[256];
double total;

void main() {
  int i;
  int j;
  double s;
  for (i = 0; i < 64; i++) {           /* stream: vectorized */
    for (j = 0; j < 64; j++) {
      grid[i][j] = 0.01 * i + 0.002 * j;
    }
  }
  for (i = 0; i < 256; i++) {
    idx[i] = (i * 37) % 256;
    vals[i] = 0.5 * i;
  }
  for (j = 0; j < 64; j++) {           /* column walk: layout problem */
    for (i = 0; i < 64; i++) {
      col[j] = col[j] + grid[i][j] * 0.5;
    }
  }
  s = 0.0;
  for (i = 0; i < 256; i++) {          /* indirection: input-dependent */
    s = s + vals[idx[i]] * vals[idx[i]];
  }
  total = s;
  print(col[63]);
  print(s);
}
`

func main() {
	mod, err := pipeline.Compile("triage.c", program)
	if err != nil {
		log.Fatal(err)
	}
	res, tr, err := pipeline.Trace(context.Background(), mod, core.Budget{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== step 1: ranked opportunities ==")
	rows, err := report.RankOpportunities(mod, res, tr, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.RenderOpportunities(rows))

	fmt.Println("\n== step 2: annotated source ==")
	anns, err := report.AnnotateSource(tr, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.RenderAnnotatedSource(program, anns))
}
