package main

// The batch workloads — paper, analyze-live, analyze-vtr2 — and the state and
// oracles every workload shares.

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// env is one bench run's shared settings and directories.
type env struct {
	root    string // checkout root
	bin     string // built product commands
	work    string // generated inputs and recorded traces of this run
	cache   string // output digests shared by every run of this build
	seed    int64
	scale   float64
	seconds float64
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

// A workload drives one product surface. prepare generates the inputs;
// coldStarts samples setup_s; unit runs one unit of end-to-end work;
// tracedPrep makes sure end-to-end outputs exist for the traced run to
// match; replay rebuilds the unit's work from layer primitives.
type workload interface {
	prepare(e *env, st *wstate) error
	coldStarts(e *env, st *wstate)
	unit(e *env, st *wstate) error
	tracedPrep(e *env, st *wstate) error
	replay(e *env, st *wstate, lc *layerClock) error
}

func newWorkload(name string) workload {
	switch name {
	case "paper":
		return &paper{}
	case "analyze-live":
		return &analyze{live: true}
	case "analyze-vtr2":
		return &analyze{}
	}
	return &service{}
}

// coldStartSamples is how many cold starts measure setup_s.
const coldStartSamples = 9

// wstate accumulates one workload's samples, operation counts and output
// digests.
type wstate struct {
	name      string
	w         workload
	attempted int
	failed    int
	invalid   bool // the run broke a validity guard
	problems  []string
	samples   map[string][]float64
	layers    map[string][]float64
	digests   map[string]string // input key → digest of its first output
	unitCPU   []float64         // product CPU seconds per unit
}

func newState(name string) *wstate {
	return &wstate{name: name, w: newWorkload(name), samples: map[string][]float64{},
		layers: map[string][]float64{}, digests: map[string]string{}}
}

func (st *wstate) add(metric string, v float64) { st.samples[metric] = append(st.samples[metric], v) }

// dropUnitSamples discards the samples the units recorded so far.
func (st *wstate) dropUnitSamples() {
	setup := st.samples["setup_s"]
	st.samples = map[string][]float64{"setup_s": setup}
	st.unitCPU = nil
}

// maxProblems caps the problem messages kept per workload.
const maxProblems = 20

func (st *wstate) note(format string, args ...any) {
	if len(st.problems) < maxProblems {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

// opFailed counts one failed operation.
func (st *wstate) opFailed(format string, args ...any) {
	st.failed++
	st.note(format, args...)
}

// invalidate marks the whole run invalid.
func (st *wstate) invalidate(format string, args ...any) {
	st.invalid = true
	st.note(format, args...)
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// inputKey names an input for output matching: the same key on different
// surfaces (CLI live, CLI offline, service, traced driver) must produce the
// same bytes.
func inputKey(parts ...string) string { return digest([]byte(strings.Join(parts, "\x00"))) }

// output checks out against the first output this run saw for key, and
// against the digest an earlier run of the same build recorded for it — so
// the analyze-live and analyze-vtr2 runs of one checkout cross-check each
// other even when each runs alone.
func (st *wstate) output(e *env, key string, out []byte) error {
	d := digest(out)
	if prev, ok := st.digests[key]; ok {
		if prev != d {
			return fmt.Errorf("output differs from this run's earlier output for the same input")
		}
		return nil
	}
	st.digests[key] = d
	path := filepath.Join(e.cache, key)
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != d {
			return fmt.Errorf("output differs from the output another run of this build produced for the same input")
		}
		return nil
	}
	if err := os.MkdirAll(e.cache, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(d), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (st *wstate) result() *WorkloadResult {
	wr := &WorkloadResult{Name: st.name, Attempted: st.attempted, Failed: st.failed,
		Problems: st.problems, Metrics: map[string]*Summary{}, Layers: map[string]*Summary{}}
	wr.Correct = st.failed == 0 && !st.invalid
	if st.attempted > 0 {
		st.samples["fail_ratio"] = []float64{float64(st.failed) / float64(st.attempted)}
	}
	for _, name := range workloadE2E[st.name] {
		if xs := st.samples[name]; len(xs) > 0 {
			d, _ := findDef(e2eDefs, name)
			wr.Metrics[name] = summarize(d.unit, d.better, xs)
		}
	}
	for name, xs := range st.layers {
		d, _ := findDef(layerDefs, name)
		wr.Layers[name] = summarize(d.unit, d.better, xs)
	}
	return wr
}

// unitOnce runs one end-to-end unit unless the run already has one, whose
// outputs the traced run then matches and whose CPU time it compares with.
func unitOnce(e *env, st *wstate) error {
	if len(st.unitCPU) > 0 {
		return nil
	}
	return st.w.unit(e, st)
}

// coldStart samples setup_s: the median of several cold starts of the
// workload's entry point on a trivial input, from exec to exit.
func coldStart(e *env, st *wstate, name string, args ...string) {
	for i := 0; i < coldStartSamples; i++ {
		st.attempted++
		r, err := runChild(e.work, e.tool(name), args...)
		if err != nil {
			st.opFailed("cold start: %v", err)
			continue
		}
		st.add("setup_s", r.wall.Seconds())
	}
}

// ---------------------------------------------------------------- paper

// paperArtifacts are the vecbench -csv invocations of one paper pass.
var paperArtifacts = []struct {
	name   string
	args   []string
	golden string // golden file pinning the rows, if any
	keys   int    // leading key columns in the golden lines
	cycles bool   // the CSV has a cycles column
}{
	{"table1", []string{"-csv", "-table", "1"}, "table1.golden", 2, true},
	{"table2", []string{"-csv", "-table", "2"}, "table2.golden", 1, false},
	{"table3", []string{"-csv", "-table", "3"}, "table3.golden", 2, false},
	{"table4", []string{"-csv", "-table", "4"}, "", 0, false},
	{"figure1", []string{"-csv", "-figure", "1"}, "", 0, false},
	{"figure2", []string{"-csv", "-figure", "2"}, "", 0, false},
}

// paper regenerates the paper's Tables 1–4 and Figures 1–2 with vecbench:
// whole-program trace capture and 3-region sampling, the reproduction
// itself, and the only workload on the DDG, baseline and SIMD-model layers.
type paper struct {
	golden map[string][][]string // artifact → expected CSV rows
}

func (p *paper) prepare(e *env, st *wstate) error {
	p.golden = map[string][][]string{}
	for _, a := range paperArtifacts {
		if a.golden == "" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(e.root, "internal", "report", "testdata", "golden", a.golden))
		if err != nil {
			return err
		}
		rows, err := parseGolden(string(b), a.keys, a.cycles)
		if err != nil {
			return fmt.Errorf("%s: %w", a.golden, err)
		}
		p.golden[a.name] = rows
	}
	return nil
}

func (p *paper) coldStarts(e *env, st *wstate) {
	coldStart(e, st, "vecbench", "-csv", "-figure", "1", "-n", "2")
}

// paperPasses is how many passes make one unit: the unit reports its median
// pass, which a single slow pass does not move.
const paperPasses = 3

func (p *paper) unit(e *env, st *wstate) error {
	var walls, cpus []float64
	var rss float64
	for pass := 0; pass < paperPasses; pass++ {
		var wall, cpu time.Duration
		for _, a := range paperArtifacts {
			st.attempted++
			r, err := runChild(e.work, e.tool("vecbench"), a.args...)
			wall, cpu, rss = wall+r.wall, cpu+r.cpu, max(rss, r.rssMB)
			if err != nil {
				st.opFailed("%s: %v", a.name, err)
				continue
			}
			if err := p.check(e, st, a.name, r.stdout); err != nil {
				st.opFailed("%s: %v", a.name, err)
			}
		}
		walls, cpus = append(walls, wall.Seconds()), append(cpus, cpu.Seconds())
	}
	st.add("wall_s", median(walls))
	st.add("cpu_s", median(cpus))
	st.add("peak_rss_mb", rss)
	st.unitCPU = append(st.unitCPU, median(cpus))
	return nil
}

// check holds one artifact's CSV to its golden rows (Tables 1–3) and to
// every other output for the same artifact.
func (p *paper) check(e *env, st *wstate, name string, out []byte) error {
	if want, ok := p.golden[name]; ok {
		if err := matchGolden(out, want); err != nil {
			return err
		}
	}
	return st.output(e, inputKey("paper", name), out)
}

func (p *paper) tracedPrep(e *env, st *wstate) error { return unitOnce(e, st) }

func (p *paper) replay(e *env, st *wstate, lc *layerClock) error {
	outs, err := replayPaper(lc)
	if err != nil {
		return err
	}
	lc.skip(func() {
		for _, a := range paperArtifacts {
			st.attempted++
			if err := p.check(e, st, a.name, outs[a.name]); err != nil {
				st.opFailed("traced %s: %v", a.name, err)
			}
		}
	})
	return nil
}

var goldenField = regexp.MustCompile(`^(cycles|packed|concur|unit|nonunit)=([0-9.]+)(?:%/([0-9.]+))?$`)

// parseGolden reads the pinned rows of a golden table file — the lines
// before the first blank line, "key|key|cycles=… packed=… concur=…
// unit=P%/S nonunit=P%/S" — into the CSV columns vecbench prints.
func parseGolden(text string, keys int, cycles bool) ([][]string, error) {
	var rows [][]string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			break
		}
		parts := strings.Split(line, "|")
		if len(parts) != keys+1 {
			return nil, fmt.Errorf("golden line %q: want %d keys", line, keys)
		}
		row := append([]string(nil), parts[:keys]...)
		for _, f := range strings.Fields(parts[keys]) {
			m := goldenField.FindStringSubmatch(f)
			if m == nil {
				return nil, fmt.Errorf("golden field %q", f)
			}
			if m[1] == "cycles" && !cycles {
				continue
			}
			row = append(row, m[2])
			if m[3] != "" {
				row = append(row, m[3])
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// matchGolden checks CSV output against golden rows: key columns equal,
// numbers equal once the golden value is rounded to the CSV's 3 decimals.
func matchGolden(out []byte, want [][]string) error {
	got, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		return fmt.Errorf("read CSV: %v", err)
	}
	if len(got) != len(want)+1 {
		return fmt.Errorf("%d CSV rows, golden has %d", len(got)-1, len(want))
	}
	for i, w := range want {
		g := got[i+1]
		if len(g) != len(w) {
			return fmt.Errorf("row %d: %d columns, golden has %d", i+1, len(g), len(w))
		}
		for j := range w {
			gv, gerr := strconv.ParseFloat(g[j], 64)
			wv, werr := strconv.ParseFloat(w[j], 64)
			same := g[j] == w[j]
			if gerr == nil && werr == nil {
				// Half a unit in the last CSV decimal, plus the golden's own
				// rounding to 6 decimals.
				same = math.Abs(gv-wv) <= 0.0005+0.0000005
			}
			if !same {
				return fmt.Errorf("row %d column %d: %s, golden %s", i+1, j+1, g[j], w[j])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------- analyze

// fullAnalyzeEvents is the analyze workloads' dynamic-instruction budget per
// unit at scale 1.
const fullAnalyzeEvents = 30_000_000

// tinySource is the trivial input of the analyze workloads' cold starts.
const tinySource = `double a[8];
void main() {
  int i;
  for (i = 0; i < 8; i++) {
    a[i] = 0.5 * i;
  }
  print(a[3]);
}
`

const tinyLine = 4

// analyze runs `vectrace analyze P.c -line L -instance -1 -json` over the
// generated program set: live (the interpreter feeds the analysis in the
// same process), or offline (analyze-vtr2: `record -format vtr2`, timed as
// record_s, then `analyze -trace`), the paper's record-then-analyze
// workflow.
type analyze struct {
	live  bool
	progs []Program
}

func (a *analyze) prepare(e *env, st *wstate) error {
	a.progs = AnalyzeSet(e.seed, int64(fullAnalyzeEvents*e.scale))
	for _, p := range a.progs {
		if err := os.WriteFile(filepath.Join(e.work, p.Name+".c"), []byte(p.Source), 0o644); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(e.work, "tiny.c"), []byte(tinySource), 0o644); err != nil {
		return err
	}
	if !a.live {
		_, err := runChild(e.work, e.tool("vectrace"), "record", "tiny.c", "-format", "vtr2", "-o", "tiny.vtr")
		return err
	}
	return nil
}

func (a *analyze) coldStarts(e *env, st *wstate) {
	args := []string{"analyze", "tiny.c", "-line", strconv.Itoa(tinyLine), "-instance", "-1", "-json"}
	if !a.live {
		args = append(args, "-trace", "tiny.vtr")
	}
	coldStart(e, st, "vectrace", args...)
}

var wroteEvents = regexp.MustCompile(`^wrote (\d+) events`)

func (a *analyze) unit(e *env, st *wstate) error {
	var wall, cpu, rec, analyzeWall time.Duration
	var rss float64
	var events, recorded, traceBytes int64
	for _, p := range a.progs {
		args := []string{"analyze", p.Name + ".c", "-line", strconv.Itoa(p.Line), "-instance", "-1", "-json"}
		if !a.live {
			st.attempted++
			r, err := runChild(e.work, e.tool("vectrace"), "record", p.Name+".c", "-format", "vtr2", "-o", p.Name+".vtr")
			wall, cpu, rec, rss = wall+r.wall, cpu+r.cpu, rec+r.wall, max(rss, r.rssMB)
			if err != nil {
				st.opFailed("%s: %v", p.Name, err)
				continue
			}
			n, size, err := a.checkRecording(e, st, p, r.stdout)
			if err != nil {
				st.opFailed("%s: record: %v", p.Name, err)
				continue
			}
			recorded, traceBytes = recorded+n, traceBytes+size
			args = append(args, "-trace", p.Name+".vtr")
		}
		st.attempted++
		r, err := runChild(e.work, e.tool("vectrace"), args...)
		wall, cpu, analyzeWall, rss = wall+r.wall, cpu+r.cpu, analyzeWall+r.wall, max(rss, r.rssMB)
		if err != nil {
			st.opFailed("%s: %v", p.Name, err)
			continue
		}
		n, err := checkAnalysis(p, r.stdout)
		if err == nil {
			err = st.output(e, analysisKey(p), r.stdout)
		}
		if err != nil {
			st.opFailed("%s: %v", p.Name, err)
			continue
		}
		events += n
	}
	st.add("wall_s", wall.Seconds())
	st.add("events_per_s", float64(events)/analyzeWall.Seconds())
	st.add("cpu_s", cpu.Seconds())
	st.add("peak_rss_mb", rss)
	if !a.live {
		st.add("record_s", rec.Seconds())
		st.add("trace_bytes_per_event", float64(traceBytes)/float64(max(recorded, 1)))
	}
	st.unitCPU = append(st.unitCPU, cpu.Seconds())
	return nil
}

// checkRecording reads a recorded trace's event count from the CLI's
// summary line and matches the file against earlier recordings.
func (a *analyze) checkRecording(e *env, st *wstate, p Program, stdout []byte) (events, size int64, err error) {
	m := wroteEvents.FindSubmatch(stdout)
	if m == nil {
		return 0, 0, fmt.Errorf("no event count in %q", stdout)
	}
	events, _ = strconv.ParseInt(string(m[1]), 10, 64)
	b, err := os.ReadFile(filepath.Join(e.work, p.Name+".vtr"))
	if err != nil {
		return 0, 0, err
	}
	return events, int64(len(b)), st.output(e, traceKey(p), b)
}

func analysisKey(p Program) string {
	return inputKey("analyze", p.Source, strconv.Itoa(p.Line), "-1")
}

func traceKey(p Program) string { return inputKey("vtr2", p.Source) }

// regionsDoc is the part of the canonical analysis JSON the oracles read.
type regionsDoc struct {
	Regions []struct {
		Events int    `json:"events"`
		Err    string `json:"error"`
		Report *struct {
			PerInstr []json.RawMessage
		} `json:"report"`
	} `json:"regions"`
	Failed int `json:"failed"`
}

// checkAnalysis holds an analysis to what the generator built into the
// program — one region per execution of the target loop, each reporting
// every candidate instruction — and returns the events analyzed.
func checkAnalysis(p Program, out []byte) (int64, error) {
	var doc regionsDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		return 0, fmt.Errorf("decode analysis JSON: %v", err)
	}
	if doc.Failed != 0 || len(doc.Regions) != p.Regions {
		return 0, fmt.Errorf("%d regions (%d failed), the program has %d", len(doc.Regions), doc.Failed, p.Regions)
	}
	var events int64
	for i, r := range doc.Regions {
		if r.Err != "" || r.Report == nil {
			return 0, fmt.Errorf("region %d: %q", i, r.Err)
		}
		if len(r.Report.PerInstr) != p.Cands {
			return 0, fmt.Errorf("region %d reports %d candidates, the program has %d", i, len(r.Report.PerInstr), p.Cands)
		}
		events += int64(r.Events)
	}
	return events, nil
}

func (a *analyze) tracedPrep(e *env, st *wstate) error { return unitOnce(e, st) }

func (a *analyze) replay(e *env, st *wstate, lc *layerClock) error {
	for _, p := range a.progs {
		st.attempted++
		var vtr, out []byte
		var err error
		if a.live {
			out, err = replayLive(lc, p.Name+".c", p.Source, p.Line)
		} else {
			vtr, out, err = replayOffline(lc, p.Name+".c", p.Source, p.Line)
		}
		lc.skip(func() {
			if err == nil && vtr != nil {
				err = st.output(e, traceKey(p), vtr)
			}
			if err == nil {
				_, err = checkAnalysis(p, out)
			}
			if err == nil {
				err = st.output(e, analysisKey(p), out)
			}
		})
		if err != nil {
			st.opFailed("traced %s: %v", p.Name, err)
		}
	}
	return nil
}
