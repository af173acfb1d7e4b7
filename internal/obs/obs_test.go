package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderSafe proves the "observability off" contract: every
// exported operation is a no-op on a nil recorder, nothing panics, and a
// context without a recorder flows through unchanged.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(EventsScanned, 5)
	r.Set(TraceBytesTotal, 5)
	r.Max(InterpSteps, 5)
	r.GaugeInc(ResidentRegions, PeakResidentRegions)
	r.GaugeDec(ResidentRegions)
	r.RecordRegionFailure("boom")
	r.SetCorruptByte(7)
	if got := r.Get(EventsScanned); got != 0 {
		t.Errorf("nil recorder Get = %d, want 0", got)
	}
	if snap := r.Snapshot(); snap.Elapsed != 0 || len(snap.Histograms) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil recorder Snapshot = %+v, want zero", snap)
	}
	r.StartTimer("x").Stop()
	r.ObserveDur("stage:x", time.Millisecond)
	if r.Hist("x") != nil {
		t.Error("nil recorder Hist should be nil")
	}
	r.AddHistograms(map[string]HistogramSnapshot{"x": {Count: 1}})
	r.SetTraceParent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")
	if r.EnsureTraceID() != "" || r.Snapshot().TraceID != "" {
		t.Error("nil recorder trace id should be empty")
	}
	if r.NewSpanID() != 0 {
		t.Error("nil recorder NewSpanID should be 0")
	}
	r.RecordSpanAt("x", 1, 0, "", time.Now(), time.Millisecond)
	if tree := r.Snapshot().TraceTree(); tree == nil || len(tree.Roots) != 0 {
		t.Errorf("nil recorder TraceTree = %+v, want empty tree", tree)
	}
	var h *Histogram
	h.Observe(time.Second)
	h.AddSnapshot(HistogramSnapshot{Count: 1})
	if h.Count() != 0 {
		t.Error("nil histogram Count should be 0")
	}
	var fl *FlightRecorder
	fl.Record("admit", "j1", "", "")
	if fl.Len() != 0 || fl.Snapshot() != nil {
		t.Error("nil flight recorder should be empty")
	}
	var lg *Logger
	lg.Info("x")
	lg.Sampled("k", 0, "x")
	if lg.Enabled(0) {
		t.Error("nil logger Enabled should be false")
	}

	ctx := context.Background()
	if got := WithRecorder(ctx, nil); got != ctx {
		t.Error("WithRecorder(nil) should return ctx unchanged")
	}
	if FromContext(ctx) != nil {
		t.Error("FromContext on a bare context should be nil")
	}
	if FromContext(nil) != nil {
		t.Error("FromContext(nil) should be nil")
	}
	sctx, sp := StartSpan(ctx, "stage")
	if sctx != ctx {
		t.Error("StartSpan without a recorder should return ctx unchanged")
	}
	sp.End() // nil span: no-op
	sp.End() // idempotent

	var p *Progress
	p.Stop()
	var srv *Server
	if srv.Addr() != "" {
		t.Error("nil server Addr should be empty")
	}
	if err := srv.Stop(); err != nil {
		t.Errorf("nil server Stop: %v", err)
	}

	rs := r.Snapshot().RunStats("tool", nil)
	if rs.SchemaVersion != RunStatsVersion {
		t.Errorf("nil recorder RunStats version = %d", rs.SchemaVersion)
	}
	if len(rs.Counters) != int(numCounters) {
		t.Errorf("nil recorder RunStats has %d counters, want %d", len(rs.Counters), numCounters)
	}
	if rs.Spans == nil || rs.Failures.CorruptAtByte != -1 {
		t.Errorf("nil recorder RunStats spans %v, corrupt byte %d; want [] and -1", rs.Spans, rs.Failures.CorruptAtByte)
	}
}

// TestCounterNames pins the counter/name table: full coverage, uniqueness,
// snake_case keys.
func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < numCounters; c++ {
		name := c.Name()
		if name == "" {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
		if strings.ToLower(name) != name || strings.Contains(name, " ") {
			t.Errorf("counter name %q is not snake_case", name)
		}
	}
}

// TestCountersAndGauges exercises the atomic counter kinds, including
// concurrent updates (the race detector is the real assertion there).
func TestCountersAndGauges(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(EventsScanned, 1)
				r.Max(InterpSteps, int64(i))
				r.GaugeInc(ResidentRegions, PeakResidentRegions)
				r.GaugeDec(ResidentRegions)
			}
		}()
	}
	wg.Wait()
	if got := r.Get(EventsScanned); got != 4000 {
		t.Errorf("EventsScanned = %d, want 4000", got)
	}
	if got := r.Get(InterpSteps); got != 999 {
		t.Errorf("InterpSteps max = %d, want 999", got)
	}
	if got := r.Get(ResidentRegions); got != 0 {
		t.Errorf("ResidentRegions = %d, want 0 after balanced inc/dec", got)
	}
	if peak := r.Get(PeakResidentRegions); peak < 1 || peak > 4 {
		t.Errorf("PeakResidentRegions = %d, want within [1,4]", peak)
	}
	r.Set(TraceBytesTotal, 123)
	if got := r.Get(TraceBytesTotal); got != 123 {
		t.Errorf("Set/Get = %d, want 123", got)
	}
	r.Max(TraceBytesTotal, 7) // lower: no effect
	if got := r.Get(TraceBytesTotal); got != 123 {
		t.Errorf("Max with smaller value changed counter to %d", got)
	}
}

// TestSpanTree checks parent attribution through the context and the
// recorded span list, and that timers feed only the stage histograms.
func TestSpanTree(t *testing.T) {
	r := New()
	ctx := WithRecorder(context.Background(), r)
	ctx1, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx1, "inner")
	inner.End()
	outer.End()
	r.StartTimer("sweep").Stop()

	rs := r.Snapshot().RunStats("t", nil)
	if len(rs.Spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(rs.Spans))
	}
	// Spans record in completion order: inner first.
	if rs.Spans[0].Name != "inner" || rs.Spans[0].Parent != "outer" {
		t.Errorf("inner span = %+v, want name=inner parent=outer", rs.Spans[0])
	}
	if rs.Spans[1].Name != "outer" || rs.Spans[1].Parent != "" {
		t.Errorf("outer span = %+v, want name=outer no parent", rs.Spans[1])
	}
	// Span ids link the same relationship numerically.
	if rs.Spans[0].ID == 0 || rs.Spans[1].ID == 0 {
		t.Errorf("spans missing ids: %+v", rs.Spans)
	}
	if rs.Spans[0].ParentID != rs.Spans[1].ID {
		t.Errorf("inner parent_span_id = %d, want outer id %d", rs.Spans[0].ParentID, rs.Spans[1].ID)
	}
	if rs.Spans[1].ParentID != 0 {
		t.Errorf("outer parent_span_id = %d, want 0", rs.Spans[1].ParentID)
	}
	// Every span and timer feeds its stage histogram.
	for _, name := range []string{"stage:outer", "stage:inner", "stage:sweep"} {
		if hs, ok := rs.Histograms[name]; !ok || hs.Count != 1 {
			t.Errorf("histograms[%q] = %+v, want count 1", name, hs)
		}
	}
	for _, name := range []string{"outer", "inner", "sweep"} {
		agg, ok := rs.SpanTotals[name]
		if !ok || agg.Count != 1 {
			t.Errorf("span_totals[%q] = %+v, want count 1", name, agg)
		}
	}
	// The timer must not materialize an individual span.
	for _, s := range rs.Spans {
		if s.Name == "sweep" {
			t.Error("timer leaked into the individual span list")
		}
	}
}

// TestSpanCaps floods one stage name past maxSpansPerName and the recorder
// past maxRecordedSpans: the totals keep counting, the individual list
// stays bounded, and drops are reported.
func TestSpanCaps(t *testing.T) {
	r := New()
	ctx := WithRecorder(context.Background(), r)
	const n = maxSpansPerName + 10
	for i := 0; i < n; i++ {
		_, sp := StartSpan(ctx, "flood")
		sp.End()
	}
	rs := r.Snapshot().RunStats("t", nil)
	if agg := rs.SpanTotals["flood"]; agg.Count != n {
		t.Errorf("span_totals count = %d, want %d", agg.Count, n)
	}
	if len(rs.Spans) != maxSpansPerName {
		t.Errorf("individual spans = %d, want cap %d", len(rs.Spans), maxSpansPerName)
	}
	if rs.SpansDropped != n-maxSpansPerName {
		t.Errorf("spans_dropped = %d, want %d", rs.SpansDropped, n-maxSpansPerName)
	}
}

// TestStatsRoundTrip writes a populated RunStats document and validates it,
// then checks ValidateRunStats rejects the documented violation classes.
func TestStatsRoundTrip(t *testing.T) {
	r := New()
	r.Add(EventsScanned, 100)
	r.Add(RegionsFailed, 2)
	r.RecordRegionFailure("region 3: boom")
	r.RecordRegionFailure("region 5: later") // first one wins
	r.SetCorruptByte(41)
	r.SetCorruptByte(99) // first one wins
	ctx := WithRecorder(context.Background(), r)
	_, sp := StartSpan(ctx, "scan")
	sp.End()

	path := filepath.Join(t.TempDir(), "stats.json")
	rs := r.Snapshot().RunStats("vectrace analyze", map[string]any{"line": 8})
	if err := WriteStats(path, rs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunStats(data); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	var back RunStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "vectrace analyze" || back.Counters["events_scanned"] != 100 {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Failures.RegionsFailed != 2 || back.Failures.First != "region 3: boom" || back.Failures.CorruptAtByte != 41 {
		t.Errorf("failures = %+v", back.Failures)
	}

	bad := []struct {
		name   string
		mangle func(map[string]json.RawMessage)
	}{
		{"missing counters", func(m map[string]json.RawMessage) { delete(m, "counters") }},
		{"wrong version", func(m map[string]json.RawMessage) { m["schema_version"] = json.RawMessage("99") }},
		{"missing required counter", func(m map[string]json.RawMessage) {
			var c map[string]int64
			json.Unmarshal(m["counters"], &c)
			delete(c, "ddg_edges")
			raw, _ := json.Marshal(c)
			m["counters"] = raw
		}},
	}
	for _, tc := range bad {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		tc.mangle(m)
		mangled, _ := json.Marshal(m)
		if err := ValidateRunStats(mangled); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if err := ValidateRunStats([]byte("not json")); err == nil {
		t.Error("non-JSON input validated")
	}
}

// TestProgress drives the printer with a fast interval and checks the line
// format, the ETA plumbing, and the final "done" accounting.
func TestProgress(t *testing.T) {
	r := New()
	r.Add(EventsScanned, 250_000)
	r.Add(RegionsCompleted, 3)
	r.Add(RegionsFailed, 1)
	r.Set(TraceBytesTotal, 1000)
	r.Add(TraceBytesRead, 500)
	var buf bytes.Buffer
	p := StartProgress(r, &buf, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "progress:") {
		t.Fatalf("no progress line in output:\n%s", out)
	}
	if !strings.Contains(out, "regions 3 done / 1 failed") {
		t.Errorf("missing region accounting:\n%s", out)
	}
	if !strings.Contains(out, "(50%)") {
		t.Errorf("missing percent-done:\n%s", out)
	}
	last := strings.TrimSpace(out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:])
	if !strings.HasSuffix(last, "done") {
		t.Errorf("final line %q not marked done", last)
	}
	if StartProgress(nil, &buf, 0) != nil {
		t.Error("StartProgress with nil recorder should be nil")
	}
}

// TestCountingReader checks byte accounting and nil-recorder pass-through.
func TestCountingReader(t *testing.T) {
	r := New()
	cr := &CountingReader{R: strings.NewReader("hello world"), Rec: r, C: TraceBytesRead}
	data, err := io.ReadAll(cr)
	if err != nil || string(data) != "hello world" {
		t.Fatalf("read %q, %v", data, err)
	}
	if got := r.Get(TraceBytesRead); got != 11 {
		t.Errorf("counted %d bytes, want 11", got)
	}
	nilCR := &CountingReader{R: strings.NewReader("x"), C: TraceBytesRead}
	if data, err := io.ReadAll(nilCR); err != nil || string(data) != "x" {
		t.Errorf("nil-recorder CountingReader broke the stream: %q, %v", data, err)
	}
}

// TestServer starts the debug listener on an ephemeral port and exercises
// /metrics, /progress, and /debug/pprof/ while the recorder is being
// updated — the live-observation scenario — checks the retired expvar
// routes are gone, then proves a second server in the same process binds
// cleanly.
func TestServer(t *testing.T) {
	r := New()
	r.Add(EventsScanned, 42)
	fl := NewFlightRecorder(32)
	fl.Record("admit", "j1", "tid", "")
	srv, err := StartServer("127.0.0.1:0", r, fl)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent updates while serving
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Add(EventsScanned, 1)
				r.StartTimer("sweep").Stop()
			}
		}
	}()
	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "# TYPE vectrace_events_scanned_total counter") {
		t.Errorf("/metrics: code %d, body %.120s", code, body)
	} else if err := LintExposition([]byte(body)); err != nil {
		t.Errorf("/metrics fails exposition lint: %v", err)
	}
	for _, path := range []string{"/debug/vars", "/vars"} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Errorf("%s: code %d, want 404", path, code)
		}
	}
	if code, body := get("/debug/flight"); code != 200 || !strings.Contains(body, `"kind": "admit"`) {
		t.Errorf("/debug/flight: code %d, body %.120s", code, body)
	}
	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress: code %d", code)
	}
	var snap struct {
		Counters   map[string]int64   `json:"counters"`
		SpanTotals map[string]SpanAgg `json:"span_totals"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if snap.Counters["events_scanned"] < 42 {
		t.Errorf("/progress events_scanned = %d, want >= 42", snap.Counters["events_scanned"])
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	close(stop)
	wg.Wait()
	if err := srv.Stop(); err != nil {
		t.Fatal(err)
	}
	// Second server in the same process.
	r2 := New()
	srv2, err := StartServer("127.0.0.1:0", r2, nil)
	if err != nil {
		t.Fatalf("second StartServer: %v", err)
	}
	defer srv2.Stop()
	if _, err := StartServer("", nil, nil); err == nil {
		t.Error("StartServer with nil recorder should fail")
	}
}
