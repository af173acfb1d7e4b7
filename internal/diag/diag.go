// Package diag wires the standard runtime profilers into command-line
// tools: CPU profiling, heap profiling, and the execution tracer, each
// behind an opt-in flag. It exists so vectrace and vecbench expose the
// same profiling surface the analysis benchmarks are tuned with — run the
// tool with -cpuprofile and feed the output straight to `go tool pprof`.
package diag

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"time"

	"github.com/example/vectrace/internal/obs"
)

// Timeout is the -timeout flag shared by vectrace analyze and vecbench: a
// wall-clock deadline for the whole analysis, enforced cooperatively via
// context cancellation (the interpreter polls its step counter, the region
// feed its event counter, and the analysis pool its tile dispatch).
type Timeout struct {
	// D is the selected deadline; zero means no deadline.
	D time.Duration
}

// Register installs the -timeout flag on fs.
func (t *Timeout) Register(fs *flag.FlagSet) {
	fs.DurationVar(&t.D, "timeout", 0, "abort the analysis after this `duration` (0 = no deadline)")
}

// Context returns a context honoring the selected deadline and its cancel
// function, which the caller must defer. The deadline composes with parent:
// values on parent (an obs recorder, a span) flow through, and whichever of
// the two cancellations fires first wins. A nil parent means Background;
// with the flag unset the parent comes back unchanged (no timer allocated).
//
// When this deadline is the one that fires, context.Cause names it (a
// *DeadlineCause labeled "-timeout"); when the parent's earlier deadline
// or cancellation fires first, the parent's cause flows through untouched.
func (t *Timeout) Context(parent context.Context) (context.Context, context.CancelFunc) {
	return DeadlineContext(parent, t.D, "-timeout")
}

// DeadlineCause is the cancel cause installed by DeadlineContext: it names
// which of several composed deadlines actually fired. Callers recover it
// with context.Cause + errors.As after a cancellation and report the label
// (e.g. "-timeout", "job deadline", "server job deadline") to the user, so
// a job killed under a stack of deadlines says which budget it blew.
type DeadlineCause struct {
	// Name labels the deadline's owner.
	Name string
	// D is the configured duration.
	D time.Duration
}

// Error implements error.
func (c *DeadlineCause) Error() string {
	return fmt.Sprintf("%s (%v) exceeded", c.Name, c.D)
}

// Unwrap lets errors.Is(cause, context.DeadlineExceeded) hold on the cause
// itself, matching the ctx.Err() the cancellation reports.
func (c *DeadlineCause) Unwrap() error { return context.DeadlineExceeded }

// DeadlineContext composes a named wall-clock budget onto parent: the
// shortest of the new deadline and any deadline already on parent wins, and
// the cancel cause names which one fired — context.Cause returns a
// *DeadlineCause carrying this call's name only if this deadline was the
// one that expired; a parent that cancels first keeps its own cause. d <= 0
// installs no deadline and returns parent unchanged (no timer allocated),
// so flag groups and server config can call it unconditionally.
func DeadlineContext(parent context.Context, d time.Duration, name string) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithTimeoutCause(parent, d, &DeadlineCause{Name: name, D: d})
}

// Flags holds the profiling destinations selected on the command line.
// Zero values mean "off"; Start and Stop are no-ops for every profiler
// whose flag was not set, so callers can wire the pair unconditionally.
type Flags struct {
	// CPUProfile is the -cpuprofile destination (pprof format).
	CPUProfile string
	// MemProfile is the -memprofile destination (pprof heap profile,
	// written once at Stop, after a forced GC).
	MemProfile string
	// ExecTrace is the execution-trace destination (go tool trace
	// format). The flag name varies by tool — see Register.
	ExecTrace string

	// Create opens a profile destination for writing. Nil means os.Create;
	// tests inject failing writers (internal/faultio) here to exercise the
	// partial-failure paths without touching the filesystem.
	Create func(name string) (io.WriteCloser, error)

	cpuFile   io.WriteCloser
	traceFile io.WriteCloser
}

// create opens name through the injectable hook (os.Create by default).
func (d *Flags) create(name string) (io.WriteCloser, error) {
	if d.Create != nil {
		return d.Create(name)
	}
	return os.Create(name)
}

// Register installs the three profiling flags on fs. The execution-trace
// flag is named traceFlagName because the conventional "-trace" collides
// with vectrace analyze's input-trace flag (that tool registers it as
// "-exectrace"; vecbench keeps the conventional name).
func (d *Flags) Register(fs *flag.FlagSet, traceFlagName string) {
	fs.StringVar(&d.CPUProfile, "cpuprofile", "", "write a CPU profile to `file` (view with go tool pprof)")
	fs.StringVar(&d.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
	fs.StringVar(&d.ExecTrace, traceFlagName, "", "write a runtime execution trace to `file` (view with go tool trace)")
}

// Start begins every profiler whose destination flag was set. On error the
// profilers already started are stopped again, so a failed Start never
// leaves background collection running.
func (d *Flags) Start() error {
	if d.CPUProfile != "" {
		f, err := d.create(d.CPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		d.cpuFile = f
	}
	if d.ExecTrace != "" {
		f, err := d.create(d.ExecTrace)
		if err != nil {
			d.stopCPU()
			return fmt.Errorf("exec trace: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			d.stopCPU()
			return fmt.Errorf("exec trace: %w", err)
		}
		d.traceFile = f
	}
	return nil
}

// stopCPU halts CPU profiling and closes its file, if running.
func (d *Flags) stopCPU() error {
	if d.cpuFile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := d.cpuFile.Close()
	d.cpuFile = nil
	return err
}

// Stop flushes and closes every profiler Start began, and writes the heap
// profile if one was requested. It returns the first error encountered but
// always attempts every shutdown step, so a full set of profiles survives a
// partial failure. Safe to call when Start was never called or failed.
func (d *Flags) Stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	keep(d.stopCPU())
	if d.traceFile != nil {
		rtrace.Stop()
		keep(d.traceFile.Close())
		d.traceFile = nil
	}
	if d.MemProfile != "" {
		f, err := d.create(d.MemProfile)
		if err != nil {
			keep(fmt.Errorf("memprofile: %w", err))
		} else {
			runtime.GC() // up-to-date allocation statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	return first
}

// Obs holds the observability destinations selected on the command line:
// -stats (RunStats JSON on exit), -progress (throttled live stderr lines),
// and -debug-addr (the /metrics, /progress, /debug/pprof listener). Like
// Flags, zero values mean "off" and the Start/Stop pair is safe to wire
// unconditionally; when no flag is set Recorder() stays nil and the whole
// pipeline keeps its nil-recorder fast path.
type Obs struct {
	// Stats is the -stats destination file.
	Stats string
	// Progress enables the -progress live line printer on stderr.
	Progress bool
	// DebugAddr is the -debug-addr listen address ("" = no listener).
	DebugAddr string
	// Tool names the producing command in exported stats documents.
	Tool string
	// LogFormat / LogLevel select the -log-format/-log-level structured
	// logger; an empty format means no logger (Logger() stays nil and
	// every log site keeps its nil fast path).
	LogFormat string
	LogLevel  string
	// ProgressWriter overrides the progress destination (tests). Nil means
	// os.Stderr.
	ProgressWriter io.Writer
	// LogWriter overrides the log destination (tests). Nil means os.Stderr.
	LogWriter io.Writer
	// Flight, when set by the command before Start, is served at the debug
	// listener's /debug/flight (vectraced shares its ring here).
	Flight *obs.FlightRecorder

	rec      *obs.Recorder
	prog     *obs.Progress
	logger   *obs.Logger
	srv      *obs.Server
	started  time.Time
	heapStop chan struct{}
	heapDone chan struct{}
}

// heapSampleInterval is the cadence of the background heap sampler. Coarse
// on purpose: ReadMemStats stops the world briefly, and the peaks it feeds
// (heap_alloc_peak_bytes, heap_sys_peak_bytes) only need to resolve
// region-scale allocation spikes, which last far longer than this.
const heapSampleInterval = 50 * time.Millisecond

// sampleHeap records the current heap readings into the max gauges.
func (o *Obs) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.rec.Max(obs.HeapAllocPeakBytes, int64(ms.HeapAlloc))
	o.rec.Max(obs.HeapSysPeakBytes, int64(ms.HeapSys))
}

// Register installs the observability flags on fs.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Stats, "stats", "", "write run statistics (RunStats JSON) to `file` on exit")
	fs.BoolVar(&o.Progress, "progress", false, "print throttled live progress lines to stderr")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve /metrics, /progress and /debug/pprof on `addr` (e.g. localhost:6060) while running")
	fs.StringVar(&o.LogFormat, "log-format", "", "emit structured logs to stderr as \"json\" (NDJSON) or \"text\" (\"\" = no structured logs)")
	fs.StringVar(&o.LogLevel, "log-level", "info", "minimum structured log `level`: debug, info, warn, or error")
}

// Enabled reports whether any observability flag was set.
func (o *Obs) Enabled() bool {
	return o.Stats != "" || o.Progress || o.DebugAddr != ""
}

// Start allocates the recorder and brings up the selected exporters. With
// no observability flag set it does nothing and Recorder() stays nil. On
// error (a debug listener that cannot bind) the exporters already started
// are stopped again.
func (o *Obs) Start() error {
	// The logger is independent of the recorder: -log-format alone builds
	// one without switching the analysis pipeline's recorder on.
	if o.LogFormat != "" {
		w := o.LogWriter
		if w == nil {
			w = os.Stderr
		}
		lg, err := obs.NewLogger(w, o.LogFormat, o.LogLevel)
		if err != nil {
			return err
		}
		o.logger = lg
		// Run-lifecycle bracket: every binary that wires Obs gets a
		// run_started/run_done pair, so -log-format is never a silent no-op
		// on the CLIs (the daemon layers its job/http records on top).
		o.started = time.Now()
		o.logger.Info("run_started", "tool", o.Tool)
	}
	if !o.Enabled() {
		return nil
	}
	o.rec = obs.New()
	if o.Progress {
		w := o.ProgressWriter
		if w == nil {
			w = os.Stderr
		}
		o.prog = obs.StartProgress(o.rec, w, 0)
	}
	if o.DebugAddr != "" {
		srv, err := obs.StartServer(o.DebugAddr, o.rec, o.Flight)
		if err != nil {
			o.prog.Stop()
			o.prog = nil
			o.rec = nil
			return fmt.Errorf("debug-addr: %w", err)
		}
		o.srv = srv
	}
	o.heapStop = make(chan struct{})
	o.heapDone = make(chan struct{})
	go func() {
		defer close(o.heapDone)
		tick := time.NewTicker(heapSampleInterval)
		defer tick.Stop()
		for {
			o.sampleHeap()
			select {
			case <-o.heapStop:
				return
			case <-tick.C:
			}
		}
	}()
	return nil
}

// Recorder returns the live recorder, nil when observability is off.
func (o *Obs) Recorder() *obs.Recorder { return o.rec }

// Logger returns the structured logger, nil when -log-format is unset.
func (o *Obs) Logger() *obs.Logger { return o.logger }

// DebugURL returns the bound debug listener address ("" when off) — with a
// ":0" port this is how callers learn the real port.
func (o *Obs) DebugURL() string { return o.srv.Addr() }

// Context returns ctx carrying the live recorder (ctx unchanged when
// observability is off).
func (o *Obs) Context(ctx context.Context) context.Context {
	return obs.WithRecorder(ctx, o.rec)
}

// Stop shuts the exporters down in order — final progress line, debug
// listener, then the -stats document (so the exported stats see the
// complete run) — attempting every step and returning the first error.
// Safe when Start was never called or observability is off.
func (o *Obs) Stop(config map[string]any) error {
	if o.logger != nil {
		// The closing half of the run_started bracket; logger non-nil
		// implies Start ran and stamped o.started.
		o.logger.Info("run_done", "tool", o.Tool, "dur_ms", time.Since(o.started).Milliseconds())
	}
	if o.rec == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if o.heapStop != nil {
		close(o.heapStop)
		<-o.heapDone
		o.heapStop, o.heapDone = nil, nil
		// One final reading so a run shorter than the sample interval still
		// exports a non-zero peak.
		o.sampleHeap()
	}
	o.prog.Stop()
	o.prog = nil
	keep(o.srv.Stop())
	o.srv = nil
	if o.Stats != "" {
		keep(obs.WriteStats(o.Stats, o.rec.Snapshot().RunStats(o.Tool, config)))
	}
	return first
}
