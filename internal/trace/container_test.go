package trace_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/faultio"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// containerSrc exercises every region-tracking shape at once: nested loops,
// a loop inside a callee, and a loop closed by an early return.
const containerSrc = `
double g;
double a[64];
void work() {
  int j;
  for (j = 0; j < 3; j++) { g = g + a[j]; }
}
int find(int x) {
  int i;
  for (i = 0; i < 8; i++) {
    if (i == x) { return i; }
    g = g + 1.0;
  }
  return 0 - 1;
}
void main() {
  int i; int k;
  for (i = 0; i < 5; i++) {
    for (k = 0; k < 4; k++) { a[k] = a[k] + g; }
    work();
  }
  printi(find(3));
}
`

// encodeContainer encodes tr's event stream as a VTR2 container.
func encodeContainer(t *testing.T, tr *trace.Trace, opts trace.ContainerOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeContainer(&buf, tr.Module, tr.Events, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// containerCombos is the (block size, codec) matrix the round-trip
// properties run over; the small sizes force many blocks.
var containerCombos = []trace.ContainerOptions{
	{BlockBytes: 64, Codec: "none"},
	{BlockBytes: 64, Codec: "flate"},
	{BlockBytes: 1 << 10, Codec: "none"},
	{BlockBytes: 1 << 10, Codec: "flate"},
	{BlockBytes: 64 << 10, Codec: "flate"},
	{BlockBytes: 1 << 20, Codec: "flate"},
}

func TestContainerRoundTrip(t *testing.T) {
	tr := traceFor(t, containerSrc)
	for _, opts := range containerCombos {
		name := fmt.Sprintf("block=%d,codec=%s", opts.BlockBytes, opts.Codec)
		t.Run(name, func(t *testing.T) {
			data := encodeContainer(t, tr, opts)
			c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumEvents() != len(tr.Events) {
				t.Fatalf("NumEvents = %d, want %d", c.NumEvents(), len(tr.Events))
			}
			// Sequential walk reproduces the stream exactly.
			got, err := trace.ReadAll(trace.NewBlockSource(bytes.NewReader(data), nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tr.Events) {
				t.Fatal("BlockSource decode differs from original events")
			}
			// Random access reproduces it too.
			ranged, err := c.Cursor().EventRange(nil, 0, c.NumEvents())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ranged, tr.Events) {
				t.Fatal("Cursor.EventRange full range differs from original events")
			}
		})
	}
}

// TestContainerIndexMatchesRegions: the footer's per-loop region list must
// agree exactly with what the in-memory tracker computes — same count,
// same order, same [Start, End) bounds — for every loop in the program.
func TestContainerIndexMatchesRegions(t *testing.T) {
	tr := traceFor(t, containerSrc)
	data := encodeContainer(t, tr, trace.ContainerOptions{BlockBytes: 256})
	c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for loopID := 0; loopID < 8; loopID++ {
		want := tr.Regions(loopID)
		got := c.RegionsOf(loopID)
		if len(got) != len(want) {
			t.Fatalf("loop %d: index has %d regions, tracker has %d", loopID, len(got), len(want))
		}
		for k := range want {
			if got[k].Start != want[k].Start || got[k].End != want[k].End {
				t.Fatalf("loop %d region %d: index [%d,%d), tracker [%d,%d)",
					loopID, k, got[k].Start, got[k].End, want[k].Start, want[k].End)
			}
			if got[k].LoopID != loopID {
				t.Fatalf("loop %d region %d: index names loop %d", loopID, k, got[k].LoopID)
			}
		}
		total += len(got)
	}
	if len(c.Regions()) != total {
		t.Fatalf("global index has %d regions, per-loop sum is %d", len(c.Regions()), total)
	}
}

// TestContainerRoundTripRandom: random event streams (valid IDs, random
// addresses including large negative deltas) survive the container round
// trip for every combo — the block-boundary address-chain reset is
// invisible to readers.
func TestContainerRoundTripRandom(t *testing.T) {
	tr := traceFor(t, containerSrc)
	mod := tr.Module
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(4000)
		events := make([]trace.Event, n)
		for i := range events {
			events[i] = trace.Event{ID: rng.Int31n(int32(mod.NumInstrs)), Addr: trace.NoAddr}
			if rng.Intn(2) == 0 {
				events[i].Addr = rng.Int63n(1 << 40)
			}
		}
		opts := containerCombos[trial%len(containerCombos)]
		var buf bytes.Buffer
		if err := trace.EncodeContainer(&buf, mod, events, opts); err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(trace.NewBlockSource(bytes.NewReader(buf.Bytes()), nil))
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, opts, err)
		}
		if len(got) != len(events) {
			t.Fatalf("trial %d: decoded %d events, want %d", trial, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("trial %d event %d: got %+v want %+v", trial, i, got[i], events[i])
			}
		}
	}
}

func TestOpenTraceSniffsFormats(t *testing.T) {
	tr := traceFor(t, containerSrc)

	var v1 bytes.Buffer
	if err := trace.Encode(&v1, tr.Events); err != nil {
		t.Fatal(err)
	}
	o, err := trace.OpenTrace(bytes.NewReader(v1.Bytes()), int64(v1.Len()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Format != trace.FormatVTR1 || o.Container != nil || o.IndexErr != nil {
		t.Fatalf("vtr1 open = {%s container=%v indexErr=%v}", o.Format, o.Container, o.IndexErr)
	}
	got, err := trace.ReadAll(o.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatal("vtr1 source differs from original events")
	}

	v2 := encodeContainer(t, tr, trace.ContainerOptions{BlockBytes: 512})
	o, err = trace.OpenTrace(bytes.NewReader(v2), int64(len(v2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Format != trace.FormatVTR2 || o.Container == nil || o.IndexErr != nil {
		t.Fatalf("vtr2 open = {%s container=%v indexErr=%v}", o.Format, o.Container, o.IndexErr)
	}
	got, err = trace.ReadAll(o.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatal("vtr2 source differs from original events")
	}

	if _, err := trace.OpenTrace(strings.NewReader("NOPEnope"), 8, nil); !errors.Is(err, trace.ErrCorruptTrace) {
		t.Fatalf("unknown magic: err = %v, want ErrCorruptTrace", err)
	}
}

func TestContainerEmptyTrace(t *testing.T) {
	tr := traceFor(t, containerSrc)
	var buf bytes.Buffer
	if err := trace.EncodeContainer(&buf, tr.Module, nil, trace.ContainerOptions{}); err != nil {
		t.Fatal(err)
	}
	c, err := trace.OpenContainer(bytes.NewReader(buf.Bytes()), int64(buf.Len()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEvents() != 0 || c.NumBlocks() != 0 || len(c.Regions()) != 0 {
		t.Fatalf("empty container: events=%d blocks=%d regions=%d", c.NumEvents(), c.NumBlocks(), len(c.Regions()))
	}
	if evs, err := trace.ReadAll(trace.NewBlockSource(bytes.NewReader(buf.Bytes()), nil)); err != nil || len(evs) != 0 {
		t.Fatalf("empty sequential walk: %d events, err %v", len(evs), err)
	}
}

// TestContainerBitFlipSweep: flipping any single byte in the data area is
// detected — by the footer cross-check, the per-block checksum, or the
// canonical decoder — and surfaces as ErrCorruptTrace naming a block and a
// byte offset. This is the end-to-end checksum guarantee.
func TestContainerBitFlipSweep(t *testing.T) {
	tr := traceFor(t, containerSrc)
	pristine := encodeContainer(t, tr, trace.ContainerOptions{BlockBytes: 512, Codec: "flate"})
	dataEnd := len(pristine) // conservative; flips beyond the data area are caught by footer checks
	for off := 5; off < dataEnd; off++ {
		data := append([]byte(nil), pristine...)
		data[off] ^= 0x40
		c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), nil)
		if err == nil {
			_, err = c.Cursor().EventRange(nil, 0, c.NumEvents())
		}
		if err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
		if !errors.Is(err, trace.ErrCorruptTrace) {
			t.Fatalf("flip at offset %d: err = %v, want ErrCorruptTrace", off, err)
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("flip at offset %d: error %q lacks a byte offset", off, err)
		}
	}
}

// TestContainerTruncationSweep: truncating a container at every byte offset
// never panics, never invents events (the sequential walk always yields a
// prefix of the original stream), and loses data only when data-area bytes
// are actually gone — a file cut inside its footer still replays fully,
// with OpenTrace reporting the lost index via IndexErr.
func TestContainerTruncationSweep(t *testing.T) {
	tr := traceFor(t, containerSrc)
	pristine := encodeContainer(t, tr, trace.ContainerOptions{BlockBytes: 512, Codec: "flate"})
	for cut := 4; cut < len(pristine); cut++ {
		data := pristine[:cut]
		o, err := trace.OpenTrace(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			if !errors.Is(err, trace.ErrCorruptTrace) {
				t.Fatalf("cut at %d: open err = %v, want ErrCorruptTrace", cut, err)
			}
			continue
		}
		var got []trace.Event
		src := o.Source()
		var srcErr error
		for {
			ev, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				srcErr = err
				break
			}
			got = append(got, ev)
		}
		if len(got) > len(tr.Events) {
			t.Fatalf("cut at %d: decoded %d events from a %d-event trace", cut, len(got), len(tr.Events))
		}
		for i := range got {
			if got[i] != tr.Events[i] {
				t.Fatalf("cut at %d: event %d = %+v, want %+v (not a prefix)", cut, i, got[i], tr.Events[i])
			}
		}
		if len(got) == len(tr.Events) {
			// All data intact: the cut was in the footer/trailer, so the
			// index must have been reported damaged.
			if o.IndexErr == nil && cut < len(pristine) {
				t.Fatalf("cut at %d: full replay but no IndexErr", cut)
			}
		} else if srcErr == nil {
			t.Fatalf("cut at %d: lost events (%d of %d) without an error", cut, len(got), len(tr.Events))
		} else if !errors.Is(srcErr, trace.ErrCorruptTrace) {
			t.Fatalf("cut at %d: source err = %v, want ErrCorruptTrace", cut, srcErr)
		}
	}
}

// TestBlockSourceReaderError: a genuine I/O failure mid-stream passes
// through without the ErrCorruptTrace mark — "reading it failed" stays
// distinguishable from "the file is damaged", exactly like VTR1.
func TestBlockSourceReaderError(t *testing.T) {
	tr := traceFor(t, containerSrc)
	data := encodeContainer(t, tr, trace.ContainerOptions{BlockBytes: 512})
	src := trace.NewBlockSource(&faultio.ErrReader{R: bytes.NewReader(data), FailAt: int64(len(data) / 2)}, nil)
	var err error
	for {
		if _, err = src.Next(); err != nil {
			break
		}
	}
	if err == io.EOF || !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("err = %v, want injected reader error", err)
	}
	if errors.Is(err, trace.ErrCorruptTrace) {
		t.Fatalf("reader failure misclassified as corruption: %v", err)
	}
}

// TestScanIndexedRegionsMatchesTracker: the parallel indexed scan walks,
// for every region of every loop, exactly the events the in-memory
// tracker defines — at 1 worker and at 4.
func TestScanIndexedRegionsMatchesTracker(t *testing.T) {
	tr := traceFor(t, containerSrc)
	data := encodeContainer(t, tr, trace.ContainerOptions{BlockBytes: 256, Codec: "flate"})
	c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for loopID := 0; loopID < 4; loopID++ {
		want := tr.Regions(loopID)
		for _, workers := range []int{1, 4} {
			got := make([][]trace.Event, len(want))
			err := c.ScanIndexedRegions(context.Background(), tr.Module, loopID, workers,
				func(k int, _ trace.IndexRegion, walk trace.RegionWalk) {
					if _, err := walk(func(evs []trace.Event) error {
						got[k] = append(got[k], evs...)
						return nil
					}); err != nil {
						t.Errorf("loop %d region %d: %v", loopID, k, err)
					}
				})
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range want {
				if !reflect.DeepEqual(got[k], tr.RegionEvents(r)) {
					t.Fatalf("loop %d region %d (workers=%d): events differ from tracker", loopID, k, workers)
				}
			}
		}
	}
}

// TestRegionSeekReadsOnlyCoveringBlocks: materializing one small region of
// a many-block container decodes only the blocks its byte range covers —
// the index-seek guarantee, observed through the blocks-read counter.
func TestRegionSeekReadsOnlyCoveringBlocks(t *testing.T) {
	tr := traceFor(t, containerSrc)
	data := encodeContainer(t, tr, trace.ContainerOptions{BlockBytes: 64, Codec: "none"})
	rec := obs.New()
	c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), rec)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumBlocks() < 8 {
		t.Fatalf("test needs a many-block trace, got %d blocks", c.NumBlocks())
	}
	// Loop 0 is work()'s 3-iteration loop: its regions are tiny slivers of
	// the trace, each covering a handful of blocks.
	regions := c.RegionsOf(0)
	if len(regions) == 0 {
		t.Fatal("loop 0 has no indexed regions")
	}
	r := regions[len(regions)/2]
	if _, err := c.Cursor().RegionTrace(tr.Module, r); err != nil {
		t.Fatal(err)
	}
	read := rec.Get(obs.TraceBlocksRead)
	maxCovering := int64(r.Events()/8 + 2) // 64-byte blocks hold >= 8 events; +2 for boundary overlap
	if read == 0 || read > maxCovering {
		t.Fatalf("seek read %d blocks, want 1..%d of %d total", read, maxCovering, c.NumBlocks())
	}
	if hits := rec.Get(obs.RegionIndexHits); hits != 1 {
		t.Fatalf("region_index_hits = %d, want 1", hits)
	}
}
