package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The VTR2 block decoder works on the inflated payload as a byte slice:
// the payload is already in memory, so reading it through an io.ByteReader
// would cost an interface call per byte for nothing. It applies exactly the
// canonical rules the streaming byteCursor enforces for VTR1 — minimal
// varints, 64-bit overflow, the reserved address, the in-block sentinel —
// with the same error texts, so a damaged block is reported the same way
// whichever decoder met it.

// Block decoding failures. Their texts are the ones the byteCursor path
// produces, so diagnostics are independent of the decoder.
var (
	errBlockEOF        = fmt.Errorf("%w: %w", io.ErrUnexpectedEOF, ErrCorruptTrace)
	errVarintOverflow  = fmt.Errorf("varint overflows 64 bits: %w", ErrCorruptTrace)
	errVarintMinimal   = fmt.Errorf("non-minimal varint: %w", ErrCorruptTrace)
	errSentinelInBlock = fmt.Errorf("unexpected end-of-stream sentinel inside block: %w", ErrCorruptTrace)
)

// uvarintAt reads a canonically encoded uvarint from raw at off, returning
// it and the offset just past the last byte read — on failure, just past
// the offending byte.
func uvarintAt(raw []byte, off int) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		if off >= len(raw) {
			return 0, off, errBlockEOF
		}
		b := raw[off]
		off++
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, off, errVarintOverflow
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, off, errVarintMinimal
			}
			return x | uint64(b)<<s, off, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// shortUvarintAt reads a uvarint of one or two bytes from raw at off,
// returning it and its length, or length 0 when the varint there is longer,
// truncated, or not minimal — the cases uvarintAt sorts out. Heads and
// address deltas almost always take this path.
func shortUvarintAt(raw []byte, off int) (uint64, int) {
	if off < len(raw) {
		if b := raw[off]; b < 0x80 {
			return uint64(b), 1
		} else if off+1 < len(raw) {
			if c := raw[off+1]; c-1 < 0x7f {
				return uint64(b&0x7f) | uint64(c)<<7, 2
			}
		}
	}
	return 0, 0
}

// decodeEvents decodes n events from the front of raw, the address chain
// starting at 0, and appends them to dst. It returns the grown dst and the
// bytes consumed. On failure dst holds the events before the bad one and
// the count stops just past the offending byte.
func decodeEvents(raw []byte, n int, dst []Event) ([]Event, int, error) {
	off := 0
	var prevAddr int64
	var err error
	for i := 0; i < n; i++ {
		head, w := shortUvarintAt(raw, off)
		if w > 0 {
			off += w
		} else if head, off, err = uvarintAt(raw, off); err != nil {
			return dst, off, err
		}
		if head == 0 {
			return dst, off, errSentinelInBlock
		}
		id := head >> 1
		if id == 0 || id > maxID+1 {
			return dst, off, fmt.Errorf("instruction ID %d out of range: %w", int64(id)-1, ErrCorruptTrace)
		}
		ev := Event{ID: int32(id) - 1, Addr: NoAddr}
		if head&1 != 0 {
			ux, w := shortUvarintAt(raw, off)
			if w > 0 {
				off += w
			} else if ux, off, err = uvarintAt(raw, off); err != nil {
				return dst, off, err
			}
			delta := int64(ux >> 1)
			if ux&1 != 0 {
				delta = ^delta
			}
			addr := prevAddr + delta
			if addr == NoAddr {
				return dst, off, ErrReservedAddr
			}
			prevAddr = addr
			ev.Addr = addr
		}
		dst = append(dst, ev)
	}
	return dst, off, nil
}

// A blockDecoder turns stored block payloads into events, keeping what it
// can reuse from block to block: the inflate buffer and one flate reader,
// reset per block rather than allocated with a fresh window each time.
// Every Cursor and BlockSource owns one.
type blockDecoder struct {
	src     bytes.Reader
	fr      io.ReadCloser // nil until the first compressed block
	inflate []byte
}

// decode checks a block's stored payload against its checksum, inflates it
// if compressed, and appends its events to dst. Exactly b.events events
// must consume exactly b.raw bytes; anything else is corruption. Returned
// errors wrap ErrCorruptTrace but carry no position; callers wrap them in
// an OffsetError naming the block.
func (d *blockDecoder) decode(stored []byte, b blockMeta, dst []Event) ([]Event, error) {
	if crc32.ChecksumIEEE(stored) != b.crc {
		return dst, fmt.Errorf("block checksum mismatch: %w", ErrCorruptTrace)
	}
	raw := stored
	if b.compressed {
		d.src.Reset(stored)
		if d.fr == nil {
			d.fr = flate.NewReader(&d.src)
		} else if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
			return dst, fmt.Errorf("inflating block: %v: %w", err, ErrCorruptTrace)
		}
		// Inflate into a doubling buffer bounded by the declared size plus
		// one: the header's raw field is outside the payload checksum, so a
		// lying value must not provoke a huge up-front allocation — growth
		// tracks what the stream actually inflates to.
		buf, err := readAllLimit(d.fr, &d.inflate, b.raw+1)
		switch {
		case err == nil:
			return dst, fmt.Errorf("block inflates past its declared %d raw bytes: %w", b.raw, ErrCorruptTrace)
		case err == io.ErrUnexpectedEOF || err == io.EOF:
			if len(buf) != b.raw {
				return dst, fmt.Errorf("block declares %d raw bytes but inflates to %d: %w", b.raw, len(buf), ErrCorruptTrace)
			}
		default:
			return dst, fmt.Errorf("inflating block: %v: %w", err, ErrCorruptTrace)
		}
		raw = buf
	}
	dst, n, err := decodeEvents(raw, b.events, dst)
	if err != nil {
		return dst, err
	}
	if n != len(raw) {
		return dst, fmt.Errorf("%d trailing bytes after block's %d events: %w", len(raw)-n, b.events, ErrCorruptTrace)
	}
	return dst, nil
}
