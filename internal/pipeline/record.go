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
	WriteEvents(events []trace.Event) error
	Close() error
}

// writerSink streams events straight into an eventWriter as the
// interpreter executes, so recording never materializes the trace.
type writerSink struct {
	w     eventWriter
	chunk []trace.Event // one converted batch, reused
	err   error
}

// Exec implements interp.Tracer.
func (s *writerSink) Exec(id int32, addr int64) {
	if s.err == nil {
		s.err = s.w.WriteEvents([]trace.Event{{ID: id, Addr: addr}})
	}
}

// ExecBatch implements interp.BatchTracer: the plan dispatcher hands events
// over in recycled ~1K chunks, and each chunk reaches the writer in one
// call.
func (s *writerSink) ExecBatch(events []interp.Event) {
	if s.err != nil {
		return
	}
	s.chunk = s.chunk[:0]
	for _, ev := range events {
		s.chunk = append(s.chunk, trace.Event{ID: ev.ID, Addr: ev.Addr})
	}
	s.err = s.w.WriteEvents(s.chunk)
}

// Record executes the module's main function under full instrumentation,
// streaming the trace to w as it is produced, in the named format:
// trace.FormatVTR1 (the classic stream) or trace.FormatVTR2 (the indexed,
// block-compressed container laid out by opts; VTR1 ignores opts). Peak
// memory is the interpreter's working set plus the writer's buffer (for
// VTR2, one block plus the growing index), independent of the trace
// length — the recording half of the paper's record-then-analyze workflow.
// A write failure on w aborts the run rather than silently dropping tail
// events. The run skips per-loop cycle attribution, so the returned
// Result carries the totals (Steps, Cycles, FPOps) and Output, and its
// Loop* maps are nil.
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
	m := interp.New(mod, interpConfig(budget, sink, false))
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
