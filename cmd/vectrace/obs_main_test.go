package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/obs"
)

// captureBoth runs the CLI entry with stdout AND stderr redirected — the
// observability surface (progress, failure summaries) prints to stderr so
// report output on stdout stays byte-identical.
func captureBoth(t *testing.T, args ...string) (stdout, stderr string, runErr error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	ro, wo, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	re, we, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = wo, we
	runErr = run(args)
	wo.Close()
	we.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	var bufOut, bufErr bytes.Buffer
	if _, err := bufOut.ReadFrom(ro); err != nil {
		t.Fatal(err)
	}
	if _, err := bufErr.ReadFrom(re); err != nil {
		t.Fatal(err)
	}
	return bufOut.String(), bufErr.String(), runErr
}

// TestAnalyzeStatsDocument runs a full observed analysis and validates the
// emitted RunStats document: schema, stage spans, counters, clean failures.
func TestAnalyzeStatsDocument(t *testing.T) {
	path := writeSample(t)
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	out, err := capture(t, "analyze", path, "-line", "8", "-instance", "-1", "-stats", statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== region 1/1") {
		t.Fatalf("analysis output missing:\n%s", out)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRunStats(data); err != nil {
		t.Fatalf("stats document failed validation: %v\n%s", err, data)
	}
	var rs obs.RunStats
	if err := json.Unmarshal(data, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Tool != "vectrace analyze" {
		t.Errorf("tool = %q", rs.Tool)
	}
	for _, stage := range []string{"parse", "check", "lower", "interp", "region-analyze", "report"} {
		if _, ok := rs.SpanTotals[stage]; !ok {
			t.Errorf("stats missing stage span %q", stage)
		}
	}
	// span_totals is read off the stage histograms: the same count, sum
	// and max, entry for entry.
	for stage, agg := range rs.SpanTotals {
		h, ok := rs.Histograms["stage:"+stage]
		if !ok || h.Count != agg.Count || h.SumNs != agg.TotalNs || h.MaxNs != agg.MaxNs {
			t.Errorf("span_totals[%s] = %+v, stage histogram %+v (present %v)", stage, agg, h, ok)
		}
	}
	for name, min := range map[string]int64{
		"regions_started":     1,
		"regions_completed":   1,
		"candidates_analyzed": 1,
		"ddg_nodes":           1,
		"ddg_edges":           1,
		"tiles_dispatched":    1,
		"partitions_emitted":  1,
		"interp_steps":        1,
	} {
		if rs.Counters[name] < min {
			t.Errorf("counter %s = %d, want >= %d", name, rs.Counters[name], min)
		}
	}
	if rs.Failures.RegionsFailed != 0 || rs.Failures.CorruptAtByte != -1 {
		t.Errorf("clean run reported failures: %+v", rs.Failures)
	}
	if rs.Config["line"] != float64(8) {
		t.Errorf("config missing the analyzed line: %v", rs.Config)
	}
}

// TestAnalyzeObservedOutputIdentical: the same analysis with and without
// the observability flags prints byte-identical stdout.
func TestAnalyzeObservedOutputIdentical(t *testing.T) {
	path := writeSample(t)
	plain, err := capture(t, "analyze", path, "-line", "11", "-instance", "-1", "-workers", "4")
	if err != nil {
		t.Fatal(err)
	}
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	observed, stderrOut, err := captureBoth(t, "analyze", path, "-line", "11", "-instance", "-1",
		"-workers", "4", "-stats", statsPath, "-progress")
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Fatalf("stdout differs with observability on:\n--- plain ---\n%s--- observed ---\n%s", plain, observed)
	}
	if !strings.Contains(stderrOut, "progress:") || !strings.Contains(stderrOut, "done") {
		t.Errorf("-progress printed nothing to stderr:\n%s", stderrOut)
	}
}

// TestAnalyzeFailureSummaryLine: a truncated trace in streaming mode must
// end with the one-line stderr summary naming the failed-region count, the
// first error, and the corrupt byte offset — and the same offset must land
// in the stats document.
func TestAnalyzeFailureSummaryLine(t *testing.T) {
	path := writeSample(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "s.vtr")
	if _, err := capture(t, "record", path, "-o", tracePath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	statsPath := filepath.Join(dir, "stats.json")
	_, stderrOut, err := captureBoth(t, "analyze", path, "-trace", tracePath,
		"-line", "8", "-instance", "-1", "-stats", statsPath)
	if err == nil {
		t.Fatal("truncated trace analyzed without error")
	}
	var summary string
	for _, line := range strings.Split(strings.TrimSpace(stderrOut), "\n") {
		if strings.Contains(line, "regions failed") {
			summary = line
		}
	}
	if summary == "" {
		t.Fatalf("no failure summary line on stderr:\n%s", stderrOut)
	}
	if !strings.Contains(summary, "trace corrupt at byte offset") {
		t.Errorf("summary does not name the corrupt byte offset: %q", summary)
	}
	sdata, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rs obs.RunStats
	if err := json.Unmarshal(sdata, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Failures.CorruptAtByte < 0 {
		t.Errorf("stats corrupt_at_byte = %d, want the decoder offset", rs.Failures.CorruptAtByte)
	}
}

// TestAnalyzeDebugAddr smoke-tests that -debug-addr accepts an ephemeral
// port and the analysis completes with the listener wired (the endpoint
// content is covered by the obs and diag suites).
func TestAnalyzeDebugAddr(t *testing.T) {
	path := writeSample(t)
	out, err := capture(t, "analyze", path, "-line", "8", "-debug-addr", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "avg-concurrency") {
		t.Errorf("analysis output looks wrong:\n%s", out)
	}
}

// TestAnalyzeAllInstancesStreams: `analyze -instance -1` on a live program
// runs the streaming path, so the region events it holds at once are the
// in-flight chunks — per region worker one being fed, a full queue, and one
// waiting to be queued: at most workers × (queue + 2) chunks of 1024 events
// (the pipeline's streamChunkEvents and streamChunkQueue) — however long the
// trace is. Tracing the whole program into memory first leaves the gauge
// at zero.
func TestAnalyzeAllInstancesStreams(t *testing.T) {
	const (
		workers     = 2
		chunkEvents = 1024
		chunkQueue  = 4
	)
	dir := t.TempDir()
	path := filepath.Join(dir, "long.c")
	// Four long regions keep the printed report (and the captured pipe)
	// small.
	src := `double a[32768];
void main() {
  int t; int i;
  for (t = 0; t < 4; t++) {
    for (i = 1; i < 32768; i++) { a[i] = a[i-1] * 0.5 + 0.25; }
  }
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	statsPath := filepath.Join(dir, "stats.json")
	if _, err := capture(t, "analyze", path, "-line", "5", "-instance", "-1",
		"-workers", strconv.Itoa(workers), "-stats", statsPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rs obs.RunStats
	if err := json.Unmarshal(data, &rs); err != nil {
		t.Fatal(err)
	}
	if steps := rs.Counters["interp_steps"]; steps < 1_000_000 {
		t.Fatalf("trace has %d events, want >= 1M", steps)
	}
	peak := rs.Counters["scan_peak_retained_events"]
	if limit := int64(workers * (chunkQueue + 2) * chunkEvents); peak <= 0 || peak > limit {
		t.Fatalf("scan_peak_retained_events = %d, want in (0, %d]", peak, limit)
	}
}
