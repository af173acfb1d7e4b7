package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// The on-disk trace format is a compact varint stream:
//
//	magic "VTR1"
//	for each event:
//	    uvarint((id+1)<<1 | hasAddr)
//	    if hasAddr: svarint(addr - prevAddr)
//	uvarint(0)                       // end-of-stream sentinel
//
// hasAddr is set exactly when the event carries a memory address (loads and
// stores); register and control-flow events store no address at all, so a
// genuine access to byte address 0 is representable and survives a round
// trip — in memory such events are distinguished by the NoAddr sentinel, not
// by the address value. prevAddr starts at 0 and is updated only by events
// that carry an address, so address deltas stay small for strided access
// patterns and traces stay compact — the same engineering concern behind the
// paper's two-to-three-orders-of-magnitude tracing overhead.
//
// The encoding is canonical: every valid byte stream is produced by exactly
// one event stream. The decoder enforces this (minimal varints, id range,
// no reserved addresses), which is what makes the fuzzed round-trip property
// — decode then re-encode is the identity on valid inputs — hold byte for
// byte. See DESIGN.md §8 for the full wire-format contract and versioning
// rules.

const magic = "VTR1"

// maxID is the largest encodable instruction ID: id+1 must fit in an int32.
const maxID = math.MaxInt32 - 1

// ErrCorruptTrace is wrapped by every decoding error caused by the input
// bytes themselves — a bad magic, a non-minimal or overflowing varint, an
// out-of-range instruction ID, a reserved address, trailing garbage, or a
// truncated stream. Failures of the underlying reader (an I/O error, not
// malformed bytes) do NOT wrap it, so callers can distinguish "this trace
// file is damaged" from "reading it failed" with errors.Is.
var ErrCorruptTrace = errors.New("corrupt trace")

// ErrReservedAddr reports an address field holding the in-memory NoAddr
// sentinel, which the format reserves (an event without an address simply
// omits the field).
var ErrReservedAddr = fmt.Errorf("trace: address -1 is reserved: %w", ErrCorruptTrace)

// An Encoder writes events to an io.Writer in the VTR1 format as they
// arrive, so a trace can be recorded to disk without ever materializing it.
type Encoder struct {
	bw          *bufio.Writer
	buf         [binary.MaxVarintLen64]byte
	prevAddr    int64
	wroteHeader bool
	closed      bool
	err         error
}

// NewEncoder returns an Encoder writing the VTR1 stream to w. The magic
// header is written on the first Write (or Close, for an empty trace).
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{bw: bufio.NewWriter(w)}
}

// header writes the magic once.
func (e *Encoder) header() error {
	if e.wroteHeader {
		return nil
	}
	e.wroteHeader = true
	_, err := e.bw.WriteString(magic)
	return err
}

// Write appends one event to the stream. Events with Addr == NoAddr are
// encoded without an address field.
func (e *Encoder) Write(ev Event) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		e.err = errors.New("trace: write on closed Encoder")
		return e.err
	}
	if ev.ID < 0 || int64(ev.ID) > maxID {
		e.err = fmt.Errorf("trace: event ID %d out of range", ev.ID)
		return e.err
	}
	if err := e.header(); err != nil {
		e.err = err
		return err
	}
	head := uint64(ev.ID+1) << 1
	if ev.Addr != NoAddr {
		head |= 1
	}
	n := binary.PutUvarint(e.buf[:], head)
	if _, err := e.bw.Write(e.buf[:n]); err != nil {
		e.err = err
		return err
	}
	if ev.Addr != NoAddr {
		n = binary.PutVarint(e.buf[:], ev.Addr-e.prevAddr)
		if _, err := e.bw.Write(e.buf[:n]); err != nil {
			e.err = err
			return err
		}
		e.prevAddr = ev.Addr
	}
	return nil
}

// WriteEvents appends events to the stream in order, stopping at the
// first failing Write.
func (e *Encoder) WriteEvents(events []Event) error {
	for _, ev := range events {
		if err := e.Write(ev); err != nil {
			return err
		}
	}
	return nil
}

// Close terminates the stream with the end-of-stream sentinel and flushes
// buffered bytes. It does not close the underlying writer.
func (e *Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return nil
	}
	e.closed = true
	if err := e.header(); err != nil {
		e.err = err
		return err
	}
	if err := e.bw.WriteByte(0); err != nil {
		e.err = err
		return err
	}
	if err := e.bw.Flush(); err != nil {
		e.err = err
		return err
	}
	return nil
}

// Encode writes the trace's event stream to w in the VTR1 format.
func Encode(w io.Writer, events []Event) error {
	e := NewEncoder(w)
	if err := e.WriteEvents(events); err != nil {
		return err
	}
	return e.Close()
}

// A Decoder reads events one at a time from an io.Reader without
// materializing the stream: peak memory is constant in the trace length.
//
// The decoder is strict: it rejects non-minimal varints, out-of-range
// instruction IDs, and reserved address values, so every successfully
// decoded stream re-encodes byte-identically.
type Decoder struct {
	cur      byteCursor
	prevAddr int64
	started  bool
	done     bool
	err      error
}

// NewDecoder returns a Decoder reading a VTR1 stream from r. The magic
// header is checked on the first Next call.
func NewDecoder(r io.Reader) *Decoder {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Decoder{cur: byteCursor{br: br}}
}

// Offset returns the number of stream bytes consumed so far; after a
// decoding error it names the corrupted position for diagnostics.
func (d *Decoder) Offset() int64 { return d.cur.off }

// A byteCursor reads bytes from an io.ByteReader while tracking the count
// consumed, enforcing the canonical (minimal) varint rules the format
// requires. The VTR1 stream decoder and the VTR2 frame-header and footer
// parsers read through one of these; the VTR2 block payload decoder
// (block.go) applies the same rules to an in-memory slice.
type byteCursor struct {
	br  io.ByteReader
	off int64
}

// readByte reads one byte, keeping the consumed-byte count current.
func (c *byteCursor) readByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

// readUvarint reads a canonically (minimally) encoded uvarint.
func (c *byteCursor) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := c.readByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, fmt.Errorf("varint overflows 64 bits: %w", ErrCorruptTrace)
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, fmt.Errorf("non-minimal varint: %w", ErrCorruptTrace)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// readVarint reads a canonically encoded zigzag varint.
func (c *byteCursor) readVarint() (int64, error) {
	ux, err := c.readUvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

// decodeEventTail finishes decoding one event whose head uvarint has
// already been read, consuming the address delta when present and advancing
// the previous-address chain. On failure the returned context string names
// the decoding phase ("reading event header" for a bad instruction ID,
// "reading address delta" otherwise), matching the VTR1 diagnostics.
func decodeEventTail(cur *byteCursor, head uint64, prevAddr *int64) (Event, string, error) {
	id := head >> 1
	if id == 0 || id > maxID+1 {
		return Event{}, "reading event header", fmt.Errorf("instruction ID %d out of range: %w", int64(id)-1, ErrCorruptTrace)
	}
	ev := Event{ID: int32(id) - 1, Addr: NoAddr}
	if head&1 != 0 {
		delta, err := cur.readVarint()
		if err != nil {
			return Event{}, "reading address delta", err
		}
		addr := *prevAddr + delta
		if addr == NoAddr {
			return Event{}, "reading address delta", ErrReservedAddr
		}
		*prevAddr = addr
		ev.Addr = addr
	}
	return ev, "", nil
}

// An OffsetError is the typed form of every Decoder failure: it carries the
// byte offset where decoding stopped so reporting layers can localize the
// damage programmatically (errors.As) instead of parsing message text. Its
// rendered message is byte-for-byte the historical format, so diagnostics
// that grep for "byte offset" keep working.
type OffsetError struct {
	Context string // what the decoder was reading ("reading magic", ...)
	Offset  int64  // bytes consumed when decoding stopped
	Err     error  // underlying cause; wraps ErrCorruptTrace for bad bytes
}

func (e *OffsetError) Error() string {
	return fmt.Sprintf("trace: %s at byte offset %d: %v", e.Context, e.Offset, e.Err)
}

func (e *OffsetError) Unwrap() error { return e.Err }

// CorruptOffset extracts the decoder byte offset from an error chain. It
// reports ok=false when no OffsetError is present (e.g. a scan-level failure
// not caused by the byte stream).
func CorruptOffset(err error) (int64, bool) {
	var oe *OffsetError
	if errors.As(err, &oe) {
		return oe.Offset, true
	}
	return 0, false
}

// fail records and returns a decoding error, wrapping it with context and
// the byte offset where decoding stopped. Truncation (an unexpected EOF) is
// classified as corruption; genuine reader failures pass through without
// the ErrCorruptTrace mark.
func (d *Decoder) fail(context string, err error) (Event, error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorruptTrace) {
		err = fmt.Errorf("%w: %w", err, ErrCorruptTrace)
	}
	d.err = &OffsetError{Context: context, Offset: d.cur.off, Err: err}
	return Event{}, d.err
}

// Next returns the next event in the stream. It returns io.EOF after the
// end-of-stream sentinel; any other error means the stream is malformed or
// the underlying reader failed.
func (d *Decoder) Next() (Event, error) {
	if d.err != nil {
		return Event{}, d.err
	}
	if d.done {
		return Event{}, io.EOF
	}
	if !d.started {
		d.started = true
		var m [4]byte
		for i := range m {
			b, err := d.cur.readByte()
			if err != nil {
				return d.fail("reading magic", err)
			}
			m[i] = b
		}
		if string(m[:]) != magic {
			return d.fail("reading magic", fmt.Errorf("bad magic %q: %w", m[:], ErrCorruptTrace))
		}
	}
	head, err := d.cur.readUvarint()
	if err != nil {
		return d.fail("reading event header", err)
	}
	if head == 0 {
		d.done = true
		return Event{}, io.EOF
	}
	ev, context, err := decodeEventTail(&d.cur, head, &d.prevAddr)
	if err != nil {
		return d.fail(context, err)
	}
	return ev, nil
}

// Decode reads a complete VTR1 event stream from r. It is strict about
// framing: data after the end-of-stream sentinel is an error, so a decoded
// stream always re-encodes to the exact input bytes.
func Decode(r io.Reader) ([]Event, error) {
	d := NewDecoder(r)
	var events []Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	if _, err := d.cur.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: trailing data after end-of-stream sentinel at byte offset %d: %w", d.cur.off, ErrCorruptTrace)
	}
	return events, nil
}

// DecodeBytes decodes a complete in-memory VTR1 stream.
func DecodeBytes(data []byte) ([]Event, error) {
	return Decode(bytes.NewReader(data))
}
