package opt_test

import (
	"context"
	"fmt"
	"github.com/example/vectrace/internal/core"
	"testing"

	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/opt"
	"github.com/example/vectrace/internal/pipeline"
)

// runBoth executes a program unoptimized and optimized, returning both
// results.
func runBoth(t *testing.T, src string) (plain, optimized *interp.Result) {
	t.Helper()
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = pipeline.Run(context.Background(), mod, false, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	mod2, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(mod2)
	if err := mod2.Verify(); err != nil {
		t.Fatalf("optimized module fails verification: %v", err)
	}
	optimized, err = pipeline.Run(context.Background(), mod2, false, core.Budget{})
	if err != nil {
		t.Fatalf("optimized run: %v", err)
	}
	return plain, optimized
}

func TestConstantFolding(t *testing.T) {
	plain, optimized := runBoth(t, `
double g;
void main() {
  g = (2.0 + 3.0) * 4.0 - 1.0 / 2.0;
  print(g);
  printi((7 + 3) * 2 % 7);
  print(sqrt(16.0) + exp(0.0));
}
`)
	if len(plain.Output) != len(optimized.Output) {
		t.Fatal("output lengths differ")
	}
	for i := range plain.Output {
		if plain.Output[i] != optimized.Output[i] {
			t.Fatalf("output %d: %v vs %v", i, plain.Output[i], optimized.Output[i])
		}
	}
	if optimized.Steps >= plain.Steps {
		t.Fatalf("optimization saved no work: %d vs %d steps", optimized.Steps, plain.Steps)
	}
}

func TestBranchSimplification(t *testing.T) {
	plain, optimized := runBoth(t, `
double g;
void main() {
  if (1 < 2) { g = 1.0; } else { g = 2.0; }
  if (3 == 4) { g = g + 100.0; }
  print(g);
}
`)
	if plain.Output[0] != optimized.Output[0] || optimized.Output[0] != 1.0 {
		t.Fatalf("outputs: %v vs %v", plain.Output, optimized.Output)
	}
	if optimized.Steps >= plain.Steps {
		t.Fatal("constant branches should save steps")
	}
}

func TestDeadCodeElimination(t *testing.T) {
	mod, err := pipeline.Compile("t.c", `
double g;
void main() {
  double unused;
  unused = 3.0 * 4.0;  /* stored, so the store survives; its operands fold */
  g = 2.0;
  print(g);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	before := mod.NumInstrs
	opt.Optimize(mod)
	if mod.NumInstrs >= before {
		t.Fatalf("instructions %d → %d, want shrinkage", before, mod.NumInstrs)
	}
}

func TestDivTrapPreserved(t *testing.T) {
	// An unused division by zero must still trap after optimization.
	src := `
void main() {
  int z;
  int dead;
  z = 0;
  dead = 1 / z;
  printi(7);
}
`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(mod)
	if _, err := pipeline.Run(context.Background(), mod, false, core.Budget{}); err == nil {
		t.Fatal("optimization removed the division trap")
	}
}

// TestOptimizeEquivalenceOnKernels runs the full pass pipeline over a mix of
// real kernels and random programs: outputs must be identical and step
// counts must never grow.
func TestOptimizeEquivalenceOnKernels(t *testing.T) {
	sources := []string{
		`double A[32]; void main() { int i; for (i = 0; i < 32; i++) { A[i] = 0.5 * i + 2.0 * 3.0; } print(A[31]); }`,
		`double s; void main() { int i; s = 0.0; for (i = 0; i < 64; i++) { s = s + 1.5; } print(s); }`,
		`
double A[16][16];
void main() {
  int i;
  int j;
  for (i = 1; i < 15; i++) {
    for (j = 1; j < 15; j++) {
      A[i][j] = (A[i-1][j] + A[i][j-1]) * (1.0 / 4.0);
    }
  }
  print(A[14][14]);
}`,
		`
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void main() { printi(fib(12)); }`,
	}
	for i, src := range sources {
		t.Run(fmt.Sprintf("src%d", i), func(t *testing.T) {
			plain, optimized := runBoth(t, src)
			if len(plain.Output) != len(optimized.Output) {
				t.Fatal("output lengths differ")
			}
			for k := range plain.Output {
				if plain.Output[k] != optimized.Output[k] {
					t.Fatalf("output %d: %v vs %v", k, plain.Output[k], optimized.Output[k])
				}
			}
			if optimized.Steps > plain.Steps {
				t.Fatalf("optimization increased steps: %d vs %d", optimized.Steps, plain.Steps)
			}
		})
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	mod, err := pipeline.Compile("t.c", `
double g;
void main() {
  g = (1.0 + 2.0) * 3.0;
  print(g);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(mod)
	n := mod.NumInstrs
	opt.Optimize(mod)
	if mod.NumInstrs != n {
		t.Fatalf("second Optimize changed the module: %d → %d", n, mod.NumInstrs)
	}
}
