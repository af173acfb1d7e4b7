package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// decodeEventsByteCursor is the streaming block decoder the slice decoder
// replaced, kept as its oracle: byteCursor varints behind an io.ByteReader
// and decodeEventTail, with errors classified as the block path did.
func decodeEventsByteCursor(raw []byte, n int) ([]Event, int, error) {
	cur := byteCursor{br: bytes.NewReader(raw)}
	var prevAddr int64
	var dst []Event
	for i := 0; i < n; i++ {
		head, err := cur.readUvarint()
		if err != nil {
			return dst, int(cur.off), asCorrupt(err)
		}
		if head == 0 {
			return dst, int(cur.off), fmt.Errorf("unexpected end-of-stream sentinel inside block: %w", ErrCorruptTrace)
		}
		ev, _, err := decodeEventTail(&cur, head, &prevAddr)
		if err != nil {
			return dst, int(cur.off), asCorrupt(err)
		}
		dst = append(dst, ev)
	}
	return dst, int(cur.off), nil
}

// blockPayload encodes events as one block's raw payload: the canonical
// per-event encoding with the address chain starting at 0.
func blockPayload(events []Event) []byte {
	var raw []byte
	var prev int64
	for _, ev := range events {
		head := uint64(ev.ID+1) << 1
		if ev.Addr == NoAddr {
			raw = binary.AppendUvarint(raw, head)
			continue
		}
		raw = binary.AppendUvarint(raw, head|1)
		raw = binary.AppendVarint(raw, ev.Addr-prev)
		prev = ev.Addr
	}
	return raw
}

// FuzzDecodeBlockEvents: on arbitrary payload bytes and event counts, the
// slice decoder and the byteCursor oracle agree on the events decoded, the
// bytes consumed, the error text, and whether the error is corruption.
func FuzzDecodeBlockEvents(f *testing.F) {
	valid := blockPayload([]Event{
		{ID: 0, Addr: NoAddr}, {ID: 3, Addr: 4096}, {ID: 3, Addr: 4104},
		{ID: 200, Addr: 0}, {ID: maxID, Addr: 1 << 40}, {ID: 7, Addr: -2},
	})
	f.Add(valid, uint16(6))
	f.Add(valid, uint16(5))
	f.Add(valid, uint16(7))
	f.Add(valid[:len(valid)-1], uint16(6))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{0x00}, uint16(1))                                // sentinel inside a block
	f.Add([]byte{0x80, 0x00}, uint16(1))                          // non-minimal head
	f.Add([]byte{0x03, 0x80, 0x00}, uint16(1))                    // non-minimal delta
	f.Add([]byte{0x03, 0x01}, uint16(1))                          // delta to the reserved address
	f.Add([]byte{0x01}, uint16(1))                                // instruction ID -1
	f.Add(bytes.Repeat([]byte{0xff}, 10), uint16(1))              // head overflows 64 bits
	f.Add(append(bytes.Repeat([]byte{0xff}, 9), 0x01), uint16(1)) // largest head: ID out of range
	f.Add([]byte{0x03, 0xff}, uint16(1))                          // truncated delta
	f.Fuzz(func(t *testing.T, raw []byte, n uint16) {
		got, gotN, gotErr := decodeEvents(raw, int(n), nil)
		want, wantN, wantErr := decodeEventsByteCursor(raw, int(n))
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("events: slice decoder %v, byteCursor %v", got, want)
			}
		}
		if gotN != wantN {
			t.Fatalf("bytes consumed: slice decoder %d, byteCursor %d", gotN, wantN)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error: slice decoder %v, byteCursor %v", gotErr, wantErr)
		}
		if gotErr == nil {
			return
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("error text: slice decoder %q, byteCursor %q", gotErr, wantErr)
		}
		if errors.Is(gotErr, ErrCorruptTrace) != errors.Is(wantErr, ErrCorruptTrace) {
			t.Fatalf("corruption class: slice decoder %v, byteCursor %v", gotErr, wantErr)
		}
	})
}
