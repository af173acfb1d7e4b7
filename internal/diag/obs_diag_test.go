package diag

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/example/vectrace/internal/faultio"
	"github.com/example/vectrace/internal/obs"
)

// TestTimeoutComposesWithParent: the -timeout context must inherit parent
// values and cancellation instead of silently rebasing on Background.
func TestTimeoutComposesWithParent(t *testing.T) {
	rec := obs.New()
	parent := obs.WithRecorder(context.Background(), rec)

	// Flag unset: the parent comes back unchanged — values intact, no timer.
	var off Timeout
	ctx, cancel := off.Context(parent)
	defer cancel()
	if obs.FromContext(ctx) != rec {
		t.Fatal("unset timeout dropped the parent's recorder")
	}
	if _, has := ctx.Deadline(); has {
		t.Fatal("unset timeout imposed a deadline")
	}

	// Flag set: deadline applies AND the parent's values still flow.
	on := Timeout{D: time.Hour}
	ctx, cancel = on.Context(parent)
	defer cancel()
	if obs.FromContext(ctx) != rec {
		t.Fatal("timeout context dropped the parent's recorder")
	}
	if _, has := ctx.Deadline(); !has {
		t.Fatal("set timeout imposed no deadline")
	}

	// Parent cancellation wins even with a long deadline.
	pctx, pcancel := context.WithCancel(parent)
	ctx, cancel = on.Context(pctx)
	defer cancel()
	pcancel()
	if ctx.Err() == nil {
		t.Fatal("parent cancellation did not propagate through the timeout context")
	}

	// Nil parent keeps working (legacy call shape).
	ctx, cancel = off.Context(nil)
	defer cancel()
	if ctx.Err() != nil {
		t.Fatal("nil parent produced a dead context")
	}
}

// wc is an in-memory profile destination that remembers being closed.
type wc struct {
	bytes.Buffer
	closed bool
}

func (w *wc) Close() error { w.closed = true; return nil }

// TestFlagsExecTraceCreateFailureStopsCPU injects the exact partial-failure
// sequence: the CPU profile starts, the exec-trace destination fails to
// open, and Start must stop the CPU profiler on its way out (proved by a
// clean restart) while reporting the injected fault.
func TestFlagsExecTraceCreateFailureStopsCPU(t *testing.T) {
	cpu := &wc{}
	d := Flags{
		CPUProfile: "cpu.pb",
		ExecTrace:  "trace.out",
		Create: func(name string) (io.WriteCloser, error) {
			if name == "trace.out" {
				return nil, faultio.ErrInjected
			}
			return cpu, nil
		},
	}
	err := d.Start()
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Start error = %v, want ErrInjected", err)
	}
	if !cpu.closed {
		t.Fatal("failed Start left the CPU profile file open")
	}
	// The profiler must be fully stopped: a fresh Start/Stop cycle works.
	d2 := Flags{CPUProfile: filepath.Join(t.TempDir(), "cpu.pb")}
	if err := d2.Start(); err != nil {
		t.Fatalf("restart after injected failure: %v", err)
	}
	if err := d2.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestFlagsStopWithoutStartWritesHeap: -memprofile is honored by Stop even
// when Start was never called (the heap profile needs no running
// collector), and a write fault on the destination surfaces.
func TestFlagsStopWithoutStartWritesHeap(t *testing.T) {
	heap := &wc{}
	d := Flags{
		MemProfile: "mem.pb",
		Create:     func(string) (io.WriteCloser, error) { return heap, nil },
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop without Start: %v", err)
	}
	if heap.Len() == 0 {
		t.Fatal("Stop without Start wrote no heap profile")
	}
	if !heap.closed {
		t.Fatal("heap profile not closed")
	}

	// Creation failure is reported, and the other shutdown steps still ran.
	d2 := Flags{
		MemProfile: "mem.pb",
		Create:     func(string) (io.WriteCloser, error) { return nil, faultio.ErrInjected },
	}
	if err := d2.Stop(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Stop error = %v, want ErrInjected", err)
	}
}

// TestObsLifecycle runs the full -stats/-progress/-debug-addr cycle:
// recorder on the context, live endpoints while running, final progress
// line, and a schema-valid stats document carrying the config.
func TestObsLifecycle(t *testing.T) {
	var progress bytes.Buffer
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	o := Obs{Tool: "diag test", ProgressWriter: &progress}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.Register(fs)
	if err := fs.Parse([]string{"-stats", statsPath, "-progress", "-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if !o.Enabled() {
		t.Fatal("Enabled() false with every flag set")
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	rec := o.Recorder()
	if rec == nil {
		t.Fatal("no recorder after Start")
	}
	ctx := o.Context(context.Background())
	if obs.FromContext(ctx) != rec {
		t.Fatal("Context does not carry the recorder")
	}
	rec.Add(obs.EventsScanned, 7)

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + o.DebugURL() + path)
		if err != nil {
			t.Fatalf("debug listener %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "# TYPE vectrace_events_scanned_total counter") {
		t.Errorf("/metrics: code %d, body %.120s", code, body)
	}
	if code, body := get("/progress"); code != 200 || !strings.Contains(body, `"events_scanned": 7`) {
		t.Errorf("/progress: code %d, body %.120s", code, body)
	}

	if err := o.Stop(map[string]any{"n": 16}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "done") {
		t.Errorf("no final progress line:\n%s", progress.String())
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateRunStats(data); err != nil {
		t.Fatalf("stats document invalid: %v", err)
	}
	var rs obs.RunStats
	if err := json.Unmarshal(data, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Tool != "diag test" || rs.Counters["events_scanned"] != 7 {
		t.Errorf("stats document content: %+v", rs)
	}
	if rs.Config["n"] != float64(16) {
		t.Errorf("config not exported: %v", rs.Config)
	}
}

// TestObsDisabled pins the off state: no flags, no recorder, no-op Stop.
func TestObsDisabled(t *testing.T) {
	var o Obs
	if o.Enabled() {
		t.Fatal("zero Obs claims enabled")
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if o.Recorder() != nil {
		t.Fatal("disabled Obs allocated a recorder")
	}
	ctx := context.Background()
	if o.Context(ctx) != ctx {
		t.Fatal("disabled Obs rewrote the context")
	}
	if err := o.Stop(nil); err != nil {
		t.Fatal(err)
	}
}

// TestObsRunLifecycleLog: -log-format alone (no recorder) still brackets
// the run with run_started/run_done NDJSON records, so the flag is never a
// silent no-op on the CLIs.
func TestObsRunLifecycleLog(t *testing.T) {
	var logs bytes.Buffer
	o := Obs{Tool: "vectrace-test", LogFormat: "json", LogWriter: &logs}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if o.Recorder() != nil {
		t.Fatal("-log-format alone allocated a recorder")
	}
	if o.Logger() == nil {
		t.Fatal("-log-format did not build a logger")
	}
	if err := o.Stop(nil); err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg   string `json:"msg"`
			Tool  string `json:"tool"`
			DurMs *int64 `json:"dur_ms"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec.Tool != "vectrace-test" {
			t.Errorf("log line %q: tool = %q", line, rec.Tool)
		}
		if rec.Msg == "run_done" && (rec.DurMs == nil || *rec.DurMs < 0) {
			t.Errorf("run_done missing sane dur_ms: %q", line)
		}
		msgs = append(msgs, rec.Msg)
	}
	if len(msgs) != 2 || msgs[0] != "run_started" || msgs[1] != "run_done" {
		t.Fatalf("lifecycle bracket = %v, want [run_started run_done]", msgs)
	}
}

// TestObsBadDebugAddr: an unbindable address fails Start and tears down the
// progress printer it already started.
func TestObsBadDebugAddr(t *testing.T) {
	var progress bytes.Buffer
	o := Obs{Progress: true, DebugAddr: "256.256.256.256:1", ProgressWriter: &progress}
	if err := o.Start(); err == nil {
		o.Stop(nil)
		t.Fatal("Start succeeded with unbindable address")
	}
	if o.Recorder() != nil {
		t.Fatal("failed Start left a recorder behind")
	}
}
