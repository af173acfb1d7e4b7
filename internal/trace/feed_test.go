package trace_test

// Differential tests of the push-based RegionFeed against the in-memory
// region scan, Trace.Regions: same programs, same loops, same regions in the
// same close order with the same events — from a slice and through a full
// encode/decode cycle — while the feed never buffers them itself.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/trace"
)

// recSink buffers one region's events — the test double standing in for
// the one-pass kernel.
type recSink struct {
	events  []trace.Event
	index   int
	closed  bool
	aborted bool
}

func (s *recSink) Event(ev trace.Event) { s.events = append(s.events, ev) }
func (s *recSink) Close(index int)      { s.index, s.closed = index, true }
func (s *recSink) Abort()               { s.aborted = true }

// feedAll drives src through FeedRegions, collecting every sink opened.
func feedAll(ctx context.Context, tr *trace.Trace, loopID int, src trace.EventSource) ([]*recSink, int, error) {
	var sinks []*recSink
	n, err := trace.FeedRegions(ctx, tr.Module, loopID, src, func() trace.RegionSink {
		s := &recSink{index: -1}
		sinks = append(sinks, s)
		return s
	})
	return sinks, n, err
}

func TestRegionFeedMatchesScanner(t *testing.T) {
	programs := map[string]string{
		"simple": `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`,
		"nested-loops": `
double g;
void main() {
  int i; int j;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 2; j++) { g = g + 1.0; }
  }
}
`,
		"callee-loop": `
double g;
void work() {
  int j;
  for (j = 0; j < 2; j++) { g = g + 1.0; }
}
void main() {
  int i;
  for (i = 0; i < 3; i++) { work(); }
}
`,
		"early-return": `
double g;
int find(int x) {
  int i;
  for (i = 0; i < 10; i++) {
    if (i == x) { return i; }
    g = g + 1.0;
  }
  return 0 - 1;
}
void main() { printi(find(4)); }
`,
		"zero-iteration": `
double g;
void main() {
  int i;
  for (i = 0; i < 0; i++) { g = g + 1.0; }
}
`,
	}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			tr := traceFor(t, src)
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr.Events); err != nil {
				t.Fatal(err)
			}
			for _, lm := range tr.Module.Loops {
				want := tr.Regions(lm.ID)
				for _, source := range []string{"slice", "decoder"} {
					var src trace.EventSource = &trace.SliceSource{Events: tr.Events}
					if source == "decoder" {
						src = trace.NewDecoder(bytes.NewReader(buf.Bytes()))
					}
					checkFeed(t, tr, lm.ID, want, src)
				}
			}
		})
	}
}

// checkFeed asserts FeedRegions over src dispatches exactly the regions
// want holds, each sink cleanly closed with its region's events.
func checkFeed(t *testing.T, tr *trace.Trace, loopID int, want []trace.Region, src trace.EventSource) {
	t.Helper()
	sinks, n, err := feedAll(context.Background(), tr, loopID, src)
	if err != nil {
		t.Fatalf("loop %d: FeedRegions: %v", loopID, err)
	}
	if n != len(want) || len(sinks) != len(want) {
		t.Fatalf("loop %d: feed dispatched %d regions over %d sinks, Regions found %d",
			loopID, n, len(sinks), len(want))
	}
	// Sinks open in loop-entry order; indices are assigned in close order.
	// Check each sink's events against the region that closed with its
	// index.
	for _, s := range sinks {
		if !s.closed || s.aborted {
			t.Fatalf("loop %d: sink not cleanly closed: %+v", loopID, s)
		}
		ref := tr.RegionEvents(want[s.index])
		if len(s.events) != len(ref) {
			t.Fatalf("loop %d region %d: %d events, want %d", loopID, s.index, len(s.events), len(ref))
		}
		for j := range ref {
			if s.events[j] != ref[j] {
				t.Fatalf("loop %d region %d event %d = %+v, want %+v", loopID, s.index, j, s.events[j], ref[j])
			}
		}
	}
}

// TestRegionFeedCorruptEvent: an out-of-module event aborts open sinks and
// latches an ErrCorruptTrace-wrapped error with the scanner's region/event
// context.
func TestRegionFeedCorruptEvent(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`)
	loopID := tr.Module.Loops[0].ID
	// Truncate mid-region and append a foreign ID while the region is open.
	var begin int = -1
	for i, ev := range tr.Events {
		if tr.Module.InstrAt(ev.ID).Op.String() == "loop.begin" {
			begin = i
			break
		}
	}
	if begin < 0 {
		t.Fatal("no loop.begin in trace")
	}
	bad := append(append([]trace.Event{}, tr.Events[:begin+3]...), trace.Event{ID: int32(tr.Module.NumInstrs) + 7})
	sinks, _, err := feedAll(context.Background(), tr, loopID, &trace.SliceSource{Events: bad})
	if !errors.Is(err, trace.ErrCorruptTrace) || !strings.Contains(err.Error(), "not in module") {
		t.Fatalf("error %v does not wrap ErrCorruptTrace naming the foreign ID", err)
	}
	if len(sinks) != 1 || !sinks[0].aborted || sinks[0].closed {
		t.Fatalf("open sink not aborted: %+v", sinks)
	}
	// The error latches.
	f := trace.NewRegionFeed(context.Background(), tr.Module, loopID, func() trace.RegionSink { return &recSink{} })
	if perr := f.Push(trace.Event{ID: -1}); perr == nil {
		t.Fatal("Push of negative ID succeeded")
	} else if again := f.Push(tr.Events[0]); again == nil || again.Error() != perr.Error() {
		t.Fatalf("feed error did not latch: %v then %v", perr, again)
	}
}

// TestRegionFeedCancel: a pre-canceled context fails the first Push, before
// any sink is opened, with the scanner's cancellation text.
func TestRegionFeedCancel(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 2; i++) { g = g + 1.0; }
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sinks, n, err := feedAll(ctx, tr, tr.Module.Loops[0].ID, &trace.SliceSource{Events: tr.Events})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != 0 || len(sinks) != 0 {
		t.Fatalf("canceled feed dispatched %d regions, opened %d sinks", n, len(sinks))
	}
}

// TestRegionFeedSourceError: an upstream source failure (reader error
// mid-stream) aborts open sinks and surfaces through Fail's latched wrap.
func TestRegionFeedSourceError(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`)
	loopID := tr.Module.Loops[0].ID
	boom := errors.New("disk on fire")
	src := &failingSource{events: tr.Events, failAt: len(tr.Events) / 2, err: boom}
	sinks, _, err := feedAll(context.Background(), tr, loopID, src)
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped source error, got %v", err)
	}
	for _, s := range sinks {
		if !s.closed && !s.aborted {
			t.Fatalf("sink neither closed nor aborted after source failure: %+v", s)
		}
	}
}

// failingSource yields events until failAt, then returns err.
type failingSource struct {
	events []trace.Event
	pos    int
	failAt int
	err    error
}

func (s *failingSource) Next() (trace.Event, error) {
	if s.pos >= s.failAt {
		return trace.Event{}, s.err
	}
	if s.pos >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, nil
}
