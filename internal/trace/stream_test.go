package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"github.com/example/vectrace/internal/core"
	"io"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// TestAddressZeroDistinctFromNoAddr is the regression test for the encoder
// conflating "no address" with byte address 0: a doctored trace accessing
// address 0 must survive a round trip with the access intact, and events
// without an address must come back as NoAddr, not 0.
func TestAddressZeroDistinctFromNoAddr(t *testing.T) {
	events := []trace.Event{
		{ID: 1, Addr: 0},            // genuine access to byte address 0
		{ID: 2, Addr: trace.NoAddr}, // no memory access
		{ID: 3, Addr: 0x100},
		{ID: 4, Addr: 0}, // back to address 0: negative delta
		{ID: 5, Addr: trace.NoAddr},
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	if !got[0].HasAddr() || got[1].HasAddr() {
		t.Fatal("HasAddr conflates address 0 with no address")
	}
}

// TestEncoderDecoderStreaming drives the incremental API directly: events
// written one at a time must be readable one at a time, with io.EOF
// terminating the stream.
func TestEncoderDecoderStreaming(t *testing.T) {
	events := []trace.Event{
		{ID: 9, Addr: trace.NoAddr},
		{ID: 0, Addr: 0x40},
		{ID: 0, Addr: 0x48},
		{ID: 12, Addr: trace.NoAddr},
	}
	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := enc.Write(trace.Event{ID: 1, Addr: trace.NoAddr}); err == nil {
		t.Fatal("Write after Close succeeded")
	}

	dec := trace.NewDecoder(bytes.NewReader(buf.Bytes()))
	for i, want := range events {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
	}
	for range 2 {
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("after sentinel: %v, want io.EOF", err)
		}
	}
}

func TestEncoderEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty stream", len(got))
	}
}

func TestEncoderRejectsBadID(t *testing.T) {
	enc := trace.NewEncoder(io.Discard)
	if err := enc.Write(trace.Event{ID: -1, Addr: trace.NoAddr}); err == nil {
		t.Fatal("negative ID accepted")
	}
}

// vtr prepends the magic to raw event bytes.
func vtr(body ...byte) []byte {
	return append([]byte("VTR1"), body...)
}

func TestDecoderStrictness(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		// Head 4 (id 1, no addr) encoded non-minimally as two bytes.
		{"non-minimal varint", vtr(0x84, 0x00, 0x00), "non-minimal"},
		// Valid empty stream followed by a stray byte.
		{"trailing data", vtr(0x00, 0x7f), "trailing data"},
		// id+1 == 0: the reserved half of the sentinel space.
		{"header one", vtr(0x01, 0x00, 0x00), "out of range"},
		// Address delta that lands on the reserved NoAddr sentinel.
		{"reserved address", vtr(0x03, 0x01, 0x00), "reserved"},
		// uvarint wider than 64 bits.
		{"varint overflow", vtr(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), "overflow"},
		{"bad magic", []byte("NOPE...."), "bad magic"},
		{"truncated magic", []byte("VT"), "magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := trace.Decode(bytes.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode(%x) error = %v, want substring %q", tc.data, err, tc.want)
			}
		})
	}
}

func TestDecoderRejectsHugeID(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("VTR1")
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(1)<<33) // id+1 = 2^32
	buf.Write(tmp[:n])
	buf.WriteByte(0)
	if _, err := trace.Decode(&buf); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want ID-out-of-range error, got %v", err)
	}
}

func TestDecoderReservedAddrError(t *testing.T) {
	_, err := trace.Decode(bytes.NewReader(vtr(0x03, 0x01, 0x00)))
	if !errors.Is(err, trace.ErrReservedAddr) {
		t.Fatalf("want ErrReservedAddr, got %v", err)
	}
}

// TestRecordMatchesTrace: streaming a program to a VTR1 file and decoding
// it yields exactly the events live instrumentation produces.
func TestRecordMatchesTrace(t *testing.T) {
	src := `
double a[32];
double s;
void main() {
  int i;
  for (i = 0; i < 32; i++) { a[i] = 0.5 * i; }
  for (i = 1; i < 32; i++) { s = s + a[i] * a[i-1]; }
  print(s);
}
`
	mod, _, tr, err := pipeline.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := pipeline.Record(context.Background(), mod, &buf, core.Budget{}, trace.FormatVTR1, trace.ContainerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(tr.Len()) != res.Steps {
		t.Fatalf("recorded %d steps, live trace has %d events", res.Steps, tr.Len())
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != tr.Len() {
		t.Fatalf("decoded %d events, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], tr.Events[i])
		}
	}
}
