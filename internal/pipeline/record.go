package pipeline

import (
	"context"
	"fmt"
	"io"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// interp.NoAddr and trace.NoAddr must agree for events to flow through the
// tracer sink unchanged; this line fails to compile if they ever diverge.
var _ = [1]struct{}{}[interp.NoAddr-trace.NoAddr]

// eventWriter is the write side shared by trace.Encoder (VTR1) and
// trace.ContainerWriter (VTR2).
type eventWriter interface {
	Write(ev trace.Event) error
	Close() error
}

// writerSink streams events straight into an eventWriter as the
// interpreter executes, so recording never materializes the trace.
type writerSink struct {
	w   eventWriter
	err error
}

// Exec implements interp.Tracer.
func (s *writerSink) Exec(id int32, addr int64) {
	if s.err == nil {
		s.err = s.w.Write(trace.Event{ID: id, Addr: addr})
	}
}

// ExecBatch implements interp.BatchTracer: the plan dispatcher hands events
// over in recycled ~1K chunks, costing one dynamic dispatch per chunk
// instead of one per event.
func (s *writerSink) ExecBatch(events []interp.Event) {
	for _, ev := range events {
		if s.err != nil {
			return
		}
		s.err = s.w.Write(trace.Event{ID: ev.ID, Addr: ev.Addr})
	}
}

// Record executes the module's main function under full instrumentation,
// streaming the trace to w as it is produced, in the named format:
// trace.FormatVTR1 (the classic stream) or trace.FormatVTR2 (the indexed,
// block-compressed container laid out by opts; VTR1 ignores opts). Peak
// memory is the interpreter's working set plus the writer's buffer (for
// VTR2, one block plus the growing index), independent of the trace
// length — the recording half of the paper's record-then-analyze workflow.
// A write failure on w aborts the run rather than silently dropping tail
// events.
func Record(ctx context.Context, mod *ir.Module, w io.Writer, budget core.Budget, format string, opts trace.ContainerOptions) (*interp.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "record")
	defer sp.End()
	var ew eventWriter
	switch format {
	case trace.FormatVTR1:
		ew = trace.NewEncoder(w)
	case trace.FormatVTR2:
		cw, err := trace.NewContainerWriter(w, mod, opts)
		if err != nil {
			return nil, fmt.Errorf("pipeline: recording trace: %w", err)
		}
		ew = cw
	default:
		return nil, fmt.Errorf("pipeline: unknown trace format %q (want %s or %s)", format, trace.FormatVTR1, trace.FormatVTR2)
	}
	sink := &writerSink{w: ew}
	m := interp.New(mod, interpConfig(budget, sink, true))
	res, err := m.RunContext(ctx, "main")
	if err != nil {
		return nil, err
	}
	if sink.err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", sink.err)
	}
	if err := ew.Close(); err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", err)
	}
	return res, nil
}
