package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSnapshotExportersAgree renders one Snapshot every way and checks the
// renderings agree: each counter has the same value in RunStats, the
// Prometheus samples, the /progress document and the job status counters
// (CounterMap), and each span_totals entry is exactly the count, sum and
// max of its stage histogram. Writers keep updating the recorder while the
// snapshot is taken, so agreement cannot come from a quiet recorder.
func TestSnapshotExportersAgree(t *testing.T) {
	r := New()
	for c := Counter(0); c < numCounters; c++ {
		r.Set(c, int64(c)*7+1) // distinct values expose a mis-mapped key
	}
	ctx := WithRecorder(context.Background(), r)
	pctx, parse := StartSpan(ctx, "parse")
	_, lower := StartSpan(pctx, "lower")
	lower.End()
	parse.End()
	r.ObserveDur("http:GET /statsz", time.Millisecond)
	r.ObserveDur("job", 3*time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Add(EventsScanned, 1)
				r.StartTimer("sweep").Stop()
				_, sp := StartSpan(ctx, "region-analyze")
				sp.End()
			}
		}()
	}
	// Ten adds across three writers mean some writer finished a full
	// iteration, so every stage is present in the snapshot.
	for base := r.Get(EventsScanned); r.Get(EventsScanned) < base+10; {
		time.Sleep(100 * time.Microsecond)
	}
	snap := r.Snapshot()
	close(stop)
	wg.Wait()

	rs := snap.RunStats("t", nil)
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRunStats(data); err != nil {
		t.Fatalf("RunStats invalid: %v", err)
	}
	var prog progressDoc
	raw, _ := json.Marshal(snap.progressDoc())
	if err := json.Unmarshal(raw, &prog); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, snap); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(prom.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	samples := promSamples(t, prom.Bytes())
	status := snap.CounterMap()

	for c := Counter(0); c < numCounters; c++ {
		name, want := c.Name(), snap.Counters[c]
		promKey := "vectrace_" + name + "_total"
		if gaugeCounters[c] {
			promKey = "vectrace_" + name
		}
		got := map[string]int64{
			"RunStats": rs.Counters[name],
			"/metrics": samples[promKey],
			"progress": prog.Counters[name],
			"status":   status[name],
		}
		for where, v := range got {
			if v != want {
				t.Errorf("%s: %s = %d, snapshot has %d", name, where, v, want)
			}
		}
	}

	stages := 0
	for key, h := range snap.Histograms {
		name, ok := strings.CutPrefix(key, stagePrefix)
		if !ok {
			continue
		}
		stages++
		want := SpanAgg{Count: h.Count, TotalNs: h.SumNs, MaxNs: h.MaxNs}
		if got := rs.SpanTotals[name]; got != want {
			t.Errorf("RunStats span_totals[%s] = %+v, stage histogram %+v", name, got, want)
		}
		if got := prog.SpanTotals[name]; got != want {
			t.Errorf("progress span_totals[%s] = %+v, stage histogram %+v", name, got, want)
		}
		hs := rs.Histograms[key]
		if hs.Count != want.Count || hs.SumNs != want.TotalNs || hs.MaxNs != want.MaxNs {
			t.Errorf("RunStats histograms[%s] = %+v, want %+v", key, hs, want)
		}
		if got := samples[`vectrace_stage_duration_seconds_count{stage="`+name+`"}`]; got != want.Count {
			t.Errorf("/metrics stage %s count = %d, want %d", name, got, want.Count)
		}
	}
	if stages != len(rs.SpanTotals) || stages != 4 {
		t.Errorf("%d stage histograms, %d span_totals; want 4 of each", stages, len(rs.SpanTotals))
	}
	if rs.SpanTotals["sweep"].Count == 0 || rs.SpanTotals["region-analyze"].Count == 0 {
		t.Errorf("concurrent stages missing from span_totals: %v", rs.SpanTotals)
	}

	tree := snap.TraceTree()
	if tree.SpanCount != len(snap.Spans) || tree.SpansDropped != snap.SpansDropped {
		t.Errorf("trace tree %d spans / %d dropped, snapshot %d / %d",
			tree.SpanCount, tree.SpansDropped, len(snap.Spans), snap.SpansDropped)
	}
	if len(rs.Spans) != len(snap.Spans) || rs.SpansDropped != snap.SpansDropped {
		t.Errorf("RunStats %d spans / %d dropped, snapshot %d / %d",
			len(rs.Spans), rs.SpansDropped, len(snap.Spans), snap.SpansDropped)
	}
	line := progressLine(snap, false)
	if want := "events " + formatCount(snap.Counters[EventsScanned]); !strings.Contains(line, want) {
		t.Errorf("progress line %q lacks %q", line, want)
	}
}

// promSamples parses integer-valued exposition samples by their full
// name+labels key (float samples such as _sum and uptime are skipped).
func promSamples(t *testing.T, data []byte) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseInt(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
