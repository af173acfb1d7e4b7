package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// promTestRecorder builds a recorder with a deterministic mix of counters,
// gauges, and histograms covering every exposition family.
func promTestRecorder() *Recorder {
	r := New()
	r.Add(EventsScanned, 12345)
	r.Add(CacheHits, 7)
	r.Set(QueueDepth, 3)
	r.Max(QueueDepthPeak, 5)
	r.ObserveDur("stage:parse", 3*time.Microsecond)
	r.ObserveDur("stage:parse", 900*time.Microsecond)
	r.ObserveDur("stage:interp", 40*time.Millisecond)
	r.ObserveDur("http:POST /v1/jobs", 2*time.Millisecond)
	r.ObserveDur("http:GET /v1/jobs/{id}/report", 150*time.Microsecond)
	r.ObserveDur("job", 45*time.Millisecond)
	return r
}

// uptimeLine matches the one non-deterministic sample (wall time since the
// recorder started); the golden stores it normalized.
var uptimeLine = regexp.MustCompile(`(?m)^vectrace_run_duration_seconds .*$`)

// TestPromGolden pins the full exposition byte-for-byte against
// testdata/metrics.golden — names, TYPE lines, ordering, label escaping,
// and cumulative bucket math are all part of the contract a Prometheus
// scraper depends on. Regenerate with UPDATE_GOLDEN=1 after an intentional
// format change.
func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promTestRecorder().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := uptimeLine.ReplaceAll(buf.Bytes(), []byte("vectrace_run_duration_seconds 0"))

	path := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition drifted from golden %s.\ngot:\n%s", path, diffFirstLine(got, want))
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Errorf("golden exposition fails its own linter: %v", err)
	}
}

// diffFirstLine points at the first differing line for a readable failure.
func diffFirstLine(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
	}
	return "byte-level difference only"
}

// TestPromDeterministic: two writes of the same recorder differ only in
// the uptime sample — required for golden stability and scrape sanity.
func TestPromDeterministic(t *testing.T) {
	r := promTestRecorder()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	na := uptimeLine.ReplaceAll(a.Bytes(), nil)
	nb := uptimeLine.ReplaceAll(b.Bytes(), nil)
	if !bytes.Equal(na, nb) {
		t.Error("two expositions of one recorder differ beyond uptime")
	}
}

// TestPromNilRecorder: a nil recorder still answers well-formed exposition
// (uptime and counters at zero), so /metrics works before wiring completes.
func TestPromNilRecorder(t *testing.T) {
	var buf bytes.Buffer
	var r *Recorder
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(buf.Bytes()); err != nil {
		t.Errorf("nil-recorder exposition fails lint: %v", err)
	}
}

// TestLintExposition exercises the linter's negative space: each corrupt
// body must be caught, and the specific complaint should name the defect.
func TestLintExposition(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"no samples", "# TYPE x counter\n", "no samples"},
		{"missing TYPE", "orphan_metric 1\n", "no preceding # TYPE"},
		{"bad name", "# TYPE 9bad counter\n9bad 1\n", "invalid metric name"},
		{"bad type", "# TYPE x frobnicator\nx 1\n", "unknown metric type"},
		{"duplicate TYPE", "# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"},
		{"duplicate sample", "# TYPE x counter\nx 1\nx 2\n", "duplicate sample"},
		{"negative counter", "# TYPE x counter\nx -1\n", "negative"},
		{"no value", "# TYPE x counter\nx\n", "malformed sample"},
		{"bad value", "# TYPE x counter\nx zork\n", "value"},
		{
			"non-cumulative buckets",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				`h_bucket{le="+Inf"} 3` + "\n" +
				"h_sum 1\nh_count 3\n",
			"not cumulative",
		},
		{
			"missing +Inf",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				"h_sum 1\nh_count 5\n",
			`no le="+Inf"`,
		},
		{
			"count mismatch",
			"# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 5` + "\n" +
				"h_sum 1\nh_count 4\n",
			"count 4 != +Inf bucket 5",
		},
		{
			"bucket without le",
			"# TYPE h histogram\n" +
				`h_bucket{x="1"} 5` + "\n",
			"without le",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := LintExposition([]byte(c.body))
			if err == nil {
				t.Fatalf("lint accepted corrupt body:\n%s", c.body)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("lint error = %q, want mention of %q", err, c.wantErr)
			}
		})
	}

	// And the positive space: a well-formed multi-family body passes.
	good := "# TYPE up gauge\nup 1\n" +
		"# TYPE reqs counter\nreqs_total 5\n" +
		"# TYPE h histogram\n" +
		`h_bucket{op="a",le="0.001"} 2` + "\n" +
		`h_bucket{op="a",le="+Inf"} 3` + "\n" +
		`h_sum{op="a"} 0.004` + "\n" +
		`h_count{op="a"} 3` + "\n"
	if err := LintExposition([]byte(good)); err != nil {
		t.Errorf("lint rejected well-formed body: %v", err)
	}
}
