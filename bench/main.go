// Command bench is vectrace's performance suite: four workloads that drive
// the product through its CLI and HTTP surfaces, a traced run that attributes
// the time to layers, and a comparator that judges two result files.
//
// Usage (from the checkout root):
//
//	bash bench/run.sh run [-workload all|NAME[,NAME]] [-seed N] [-reps 5]
//	    [-seconds S] [-trace both|0|1] [-scale F] [-out FILE]
//	bash bench/run.sh compare A.json B.json
//
// run repeats each workload's unit of work -reps times, round-robin across
// workloads, or as many times as fit in -seconds. -trace 0 measures only the
// end-to-end metrics, -trace 1 only the traced per-layer run, both (the
// default) does both. With exactly one workload and -trace 0 or 1 the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics, holding the metrics BENCHMARK.json names.
// -out writes every raw sample with its median, quartiles and n, plus the
// machine facts. run exits 1 when an output fails its oracle or the run is
// invalid.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench run [flags] | bench compare A.json B.json")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "compare":
		err = compareCmd(os.Args[2:], os.Stdout)
	default:
		err = usageError(fmt.Errorf("unknown subcommand %q (want run or compare)", os.Args[1]))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		var ue usageErr
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageErr struct{ error }

func usageError(err error) error { return usageErr{err} }

// Workloads in suite order.
var workloadNames = []string{"paper", "analyze-live", "analyze-vtr2", "service"}

// options are the run subcommand's settings.
type options struct {
	workloads []string
	seed      int64
	reps      int
	seconds   float64
	e2e       bool
	traced    bool
	scale     float64
	out       string
}

func parseRun(args []string) (options, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workloads to run: all, or a comma-separated list of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	reps := fs.Int("reps", 5, "repetitions of each workload's unit of work (ignored with -seconds)")
	seconds := fs.Float64("seconds", 0, "measure each workload for this many seconds instead of -reps repetitions")
	trace := fs.String("trace", "both", "0: end-to-end metrics only; 1: traced per-layer run only; both")
	scale := fs.Float64("scale", 1, "input size relative to the full workloads")
	out := fs.String("out", "", "write the full results document to this file")
	if err := fs.Parse(args); err != nil {
		return options{}, usageError(err)
	}
	o := options{seed: *seed, reps: *reps, seconds: *seconds, scale: *scale, out: *out}
	switch *trace {
	case "0":
		o.e2e = true
	case "1":
		o.traced = true
	case "both":
		o.e2e, o.traced = true, true
	default:
		return o, usageError(fmt.Errorf("-trace must be 0, 1 or both, got %q", *trace))
	}
	if *workload == "all" {
		o.workloads = workloadNames
	} else {
		for _, w := range strings.Split(*workload, ",") {
			if !contains(workloadNames, w) {
				return o, usageError(fmt.Errorf("unknown workload %q (want %s)", w, strings.Join(workloadNames, ", ")))
			}
			o.workloads = append(o.workloads, w)
		}
	}
	if o.reps < 1 || o.scale <= 0 || o.seconds < 0 || fs.NArg() > 0 {
		return o, usageError(fmt.Errorf("need -reps >= 1, -scale > 0, -seconds >= 0 and no positional arguments"))
	}
	return o, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// Results is the document run -out writes and compare reads.
type Results struct {
	Schema    int               `json:"schema"`
	Seed      int64             `json:"seed"`
	Reps      int               `json:"reps"`
	Seconds   float64           `json:"seconds"`
	Scale     float64           `json:"scale"`
	Started   string            `json:"started"`
	Machine   machineFacts      `json:"machine"`
	Workloads []*WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's outcome. Operations are product
// invocations, service jobs and traced-driver analyses; an operation fails
// when it errors, is refused, or its output fails an oracle.
type WorkloadResult struct {
	Name      string              `json:"name"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Problems  []string            `json:"problems,omitempty"`
	Metrics   map[string]*Summary `json:"metrics"`
	Layers    map[string]*Summary `json:"layers,omitempty"`
}

type machineFacts struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadBefore string `json:"loadavg_before"`
	LoadAfter  string `json:"loadavg_after"`
	Commit     string `json:"commit"`
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func loadAvg() string {
	b, _ := os.ReadFile("/proc/loadavg")
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runCmd(args []string) error {
	o, err := parseRun(args)
	if err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin"), seed: o.seed, scale: o.scale, seconds: o.seconds}
	if err := buildProduct(root, e.bin); err != nil {
		return err
	}
	id, err := buildDigest(e.bin)
	if err != nil {
		return err
	}
	e.cache = filepath.Join(build, "outputs", id)
	if e.work, err = os.MkdirTemp(build, "work-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	res := &Results{Schema: 1, Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Scale: o.scale,
		Started: time.Now().UTC().Format(time.RFC3339),
		Machine: machineFacts{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), LoadBefore: loadAvg(), Commit: commitOf(root)}}
	var states []*wstate
	for _, name := range o.workloads {
		st := newState(name)
		if err := st.w.prepare(e, st); err != nil {
			return fmt.Errorf("%s: prepare: %w", name, err)
		}
		states = append(states, st)
	}
	if o.e2e {
		if err := measure(e, o, states); err != nil {
			return err
		}
	}
	if o.traced {
		for _, st := range states {
			if err := tracedRun(e, o, st); err != nil {
				return fmt.Errorf("%s: traced run: %w", st.name, err)
			}
		}
	}
	res.Machine.LoadAfter = loadAvg()
	correct := true
	for _, st := range states {
		wr := st.result()
		res.Workloads = append(res.Workloads, wr)
		correct = correct && wr.Correct
	}
	if o.out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	printTable(os.Stdout, res)
	if len(states) == 1 && o.e2e != o.traced {
		if err := printResultLine(res.Workloads[0], o.traced); err != nil {
			return err
		}
	}
	if !correct {
		return errors.New("outputs failed their oracles or the run was invalid (see problems above)")
	}
	return nil
}

// measure samples setup_s, then runs the end-to-end units: a warm-up round
// and -reps rounds, round-robin across workloads so drift in machine load
// hits every workload alike; or with -seconds, each workload in turn for
// that long.
func measure(e *env, o options, states []*wstate) error {
	for _, st := range states {
		st.w.coldStarts(e, st)
	}
	if o.seconds == 0 {
		// Round -1 warms up: the first unit after the inputs were written
		// often ran well slower than the rest, so its samples are dropped.
		// Its outputs still face the oracles.
		for rep := -1; rep < o.reps; rep++ {
			for _, st := range states {
				if err := st.w.unit(e, st); err != nil {
					return fmt.Errorf("%s: %w", st.name, err)
				}
				if rep == -1 {
					st.dropUnitSamples()
				}
			}
		}
		return nil
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	for _, st := range states {
		start := time.Now()
		for units := 0; ; units++ {
			elapsed := time.Since(start)
			// Start another unit only if it is expected to end within half a
			// unit of the budget; always run at least one.
			if units > 0 && elapsed+elapsed/time.Duration(2*units) > budget {
				break
			}
			if err := st.w.unit(e, st); err != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
		}
	}
	return nil
}

// printResultLine prints the one-line result: the metrics BENCHMARK.json
// names, as medians of the run's samples.
func printResultLine(wr *WorkloadResult, traced bool) error {
	names, from := benchmarkE2E, wr.Metrics
	if traced {
		names, from = benchmarkLayers, wr.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, n := range names {
		s, ok := from[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", wr.Name, n)
		}
		metrics[n] = value{s.Median, s.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, max(wr.Attempted, 1), wr.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printTable writes every metric by name with unit, median, quartiles and n.
func printTable(w io.Writer, res *Results) {
	for _, wr := range res.Workloads {
		status := "correct"
		if !wr.Correct {
			status = "INCORRECT"
		}
		fmt.Fprintf(w, "== %s: %s, %d operations, %d failed\n", wr.Name, status, wr.Attempted, wr.Failed)
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "   problem: %s\n", p)
		}
		for _, group := range []map[string]*Summary{wr.Metrics, wr.Layers} {
			names := make([]string, 0, len(group))
			for n := range group {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				s := group[n]
				fmt.Fprintf(w, "   %-26s %12.5g %-9s q1 %-12.5g q3 %-12.5g n %d\n", n, s.Median, s.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
}
