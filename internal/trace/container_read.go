package trace

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
)

// Reading a VTR2 container takes one of two shapes, both built from the
// same block decoder:
//
//   - Container (OpenContainer): footer-first random access. The footer is
//     parsed and checksum-verified once; afterwards any indexed loop region
//     maps to a block/byte range and a Cursor decodes exactly the covering
//     blocks, verifying each frame header against the footer (a lying
//     footer is corruption, named by block and byte offset). This is the
//     seam the parallel scanner and `analyze -instance K` seeks stand on.
//   - BlockSource (sequential): walk the frames front to back, footer
//     unread. This is the salvage path for damaged or truncated footers —
//     every intact block before the damage still yields its events — and
//     the sequential baseline the parallel scanner is differential-tested
//     against.

// corruptAt builds the standard positioned corruption error: an OffsetError
// whose cause wraps ErrCorruptTrace, rendering as
// "trace: <context> at byte offset <off>: ...".
func corruptAt(context string, off int64, format string, args ...any) error {
	args = append(args, ErrCorruptTrace)
	return &OffsetError{Context: context, Offset: off, Err: fmt.Errorf(format+": %w", args...)}
}

// asCorrupt classifies an error from decoding in-memory block bytes: plain
// truncation (EOF) becomes ErrUnexpectedEOF, and anything not already
// marked corrupt is marked — bytes already in memory cannot fail for I/O
// reasons, so every failure there is damage.
func asCorrupt(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if !errors.Is(err, ErrCorruptTrace) {
		err = fmt.Errorf("%w: %w", err, ErrCorruptTrace)
	}
	return err
}

// validateBlockMeta enforces the invariants every block entry (frame header
// or footer copy) must satisfy before its sizes are trusted for allocation.
func validateBlockMeta(b blockMeta) error {
	switch {
	case b.raw == 0 || b.raw > maxBlockRawBytes:
		return fmt.Errorf("block declares %d raw bytes (want 1..%d): %w", b.raw, maxBlockRawBytes, ErrCorruptTrace)
	case b.events == 0 || b.events > b.raw:
		return fmt.Errorf("block declares %d events in %d raw bytes: %w", b.events, b.raw, ErrCorruptTrace)
	case !b.compressed && b.stored != b.raw:
		return fmt.Errorf("uncompressed block stores %d bytes but declares %d raw: %w", b.stored, b.raw, ErrCorruptTrace)
	case b.compressed && (b.stored == 0 || b.stored >= b.raw):
		return fmt.Errorf("compressed block stores %d bytes for %d raw (writer only compresses when smaller): %w", b.stored, b.raw, ErrCorruptTrace)
	}
	return nil
}

// parseBlockEntry reads one block entry — the layout shared by on-wire
// frame headers and footer block-index entries — from cur.
func parseBlockEntry(cur *byteCursor) (blockMeta, error) {
	word, err := cur.readUvarint()
	if err != nil {
		return blockMeta{}, err
	}
	return parseBlockTail(cur, word)
}

// parseBlockTail finishes a block entry whose leading stored-length word
// has already been read (the sequential walker reads it separately to spot
// the end-of-blocks sentinel).
func parseBlockTail(cur *byteCursor, word uint64) (blockMeta, error) {
	var b blockMeta
	b.compressed = word&1 != 0
	if word>>1 > maxBlockRawBytes {
		return b, fmt.Errorf("block declares %d stored bytes: %w", word>>1, ErrCorruptTrace)
	}
	b.stored = int(word >> 1)
	raw, err := cur.readUvarint()
	if err != nil {
		return b, err
	}
	if raw > maxBlockRawBytes {
		return b, fmt.Errorf("block declares %d raw bytes (max %d): %w", raw, maxBlockRawBytes, ErrCorruptTrace)
	}
	b.raw = int(raw)
	events, err := cur.readUvarint()
	if err != nil {
		return b, err
	}
	if events > uint64(b.raw) {
		return b, fmt.Errorf("block declares %d events in %d raw bytes: %w", events, b.raw, ErrCorruptTrace)
	}
	b.events = int(events)
	var crc [4]byte
	for i := range crc {
		if crc[i], err = cur.readByte(); err != nil {
			return b, err
		}
	}
	b.crc = uint32(crc[0]) | uint32(crc[1])<<8 | uint32(crc[2])<<16 | uint32(crc[3])<<24
	return b, validateBlockMeta(b)
}

// readAllLimit reads from r into *scratch (reused across calls) until limit
// bytes arrive or r ends. It returns the bytes read and: nil when exactly
// limit bytes arrived, io.EOF / io.ErrUnexpectedEOF when r ended first, or
// r's own error. The buffer grows by doubling, so a limit far beyond what r
// actually yields costs no allocation — the defense against lying size
// fields in unverified frame headers.
func readAllLimit(r io.Reader, scratch *[]byte, limit int) ([]byte, error) {
	buf := (*scratch)[:0]
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			grow := cap(buf) * 2
			if grow < 4<<10 {
				grow = 4 << 10
			}
			if grow > limit {
				grow = limit
			}
			nb := make([]byte, len(buf), grow)
			copy(nb, buf)
			buf = nb
		}
		end := cap(buf)
		if end > limit {
			end = limit
		}
		n, err := io.ReadFull(r, buf[len(buf):end])
		buf = buf[:len(buf)+n]
		if err != nil {
			*scratch = buf
			return buf, err
		}
	}
	*scratch = buf
	return buf, nil
}

// blockInfo is a footer block entry plus its computed file geometry.
type blockInfo struct {
	blockMeta
	off        int64 // file offset of the frame header
	payloadOff int64 // file offset of the stored payload
	first      int   // absolute index of the block's first event
}

// A Container is an open VTR2 trace file with a verified footer index. It
// is immutable after OpenContainer and safe for concurrent use; per-reader
// mutable state (the single-block cache) lives in Cursors.
type Container struct {
	r    io.ReaderAt
	size int64
	rec  *obs.Recorder

	codec     byte
	blocks    []blockInfo
	regions   []IndexRegion // global close order
	numEvents int
}

// readAt fills p from offset off, counting the bytes read and classifying
// short reads (truncation) as corruption.
func (c *Container) readAt(context string, p []byte, off int64) error {
	n, err := c.r.ReadAt(p, off)
	c.rec.Add(obs.TraceBytesRead, int64(n))
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
		return corruptAt(context, off+int64(n), "unexpected EOF")
	}
	return &OffsetError{Context: context, Offset: off + int64(n), Err: err}
}

// OpenContainer parses and verifies a VTR2 file's header, trailer, and
// footer index from a random-access reader. It reads only the fixed header
// and the footer — O(index), not O(trace) — so opening a multi-GB
// container is cheap. Block payloads are fetched and verified lazily by
// Cursors. A nil recorder is fine.
func OpenContainer(r io.ReaderAt, size int64, rec *obs.Recorder) (*Container, error) {
	c := &Container{r: r, size: size, rec: rec}
	// Smallest valid container: header + sentinel + empty footer + trailer.
	minFooter := int64(1 + 1 + 4) // numBlocks, numRegions, crc
	if size < headerLen+1+minFooter+trailerLen {
		return nil, corruptAt("reading vtr2 header", size, "file too small (%d bytes) for a vtr2 container", size)
	}
	var hdr [headerLen]byte
	if err := c.readAt("reading vtr2 header", hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != magic2 {
		return nil, corruptAt("reading vtr2 header", 0, "bad magic %q", hdr[:4])
	}
	if hdr[4] > codecFlate {
		return nil, corruptAt("reading vtr2 header", 4, "unknown codec %d", hdr[4])
	}
	c.codec = hdr[4]

	var tr [trailerLen]byte
	if err := c.readAt("reading vtr2 trailer", tr[:], size-trailerLen); err != nil {
		return nil, err
	}
	if string(tr[4:]) != magic2End {
		return nil, corruptAt("reading vtr2 trailer", size-trailerLen+4, "bad end magic %q", tr[4:])
	}
	footerLen := int64(uint32(tr[0]) | uint32(tr[1])<<8 | uint32(tr[2])<<16 | uint32(tr[3])<<24)
	footerStart := size - trailerLen - footerLen
	if footerLen < minFooter || footerStart < headerLen+1 {
		return nil, corruptAt("reading vtr2 trailer", size-trailerLen, "footer length %d does not fit the file", footerLen)
	}
	footer := make([]byte, footerLen)
	if err := c.readAt("reading vtr2 footer", footer, footerStart); err != nil {
		return nil, err
	}
	body := footer[:footerLen-4]
	wantCRC := uint32(footer[footerLen-4]) | uint32(footer[footerLen-3])<<8 |
		uint32(footer[footerLen-2])<<16 | uint32(footer[footerLen-1])<<24
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, corruptAt("reading vtr2 footer", footerStart, "footer checksum mismatch")
	}

	// Parse the verified footer. Cursor offsets are relative to the footer;
	// reported offsets are rebased to the file.
	cur := byteCursor{br: bytes.NewReader(body)}
	ffail := func(err error) error {
		return &OffsetError{Context: "parsing vtr2 footer", Offset: footerStart + cur.off, Err: asCorrupt(err)}
	}
	numBlocks, err := cur.readUvarint()
	if err != nil {
		return nil, ffail(err)
	}
	if numBlocks > uint64(footerLen) {
		return nil, ffail(fmt.Errorf("footer declares %d blocks in %d bytes", numBlocks, footerLen))
	}
	off := int64(headerLen)
	for i := 0; i < int(numBlocks); i++ {
		meta, err := parseBlockEntry(&cur)
		if err != nil {
			return nil, ffail(fmt.Errorf("block %d entry: %w", i, err))
		}
		bi := blockInfo{blockMeta: meta, off: off, first: c.numEvents}
		bi.payloadOff = off + int64(meta.frameHeaderLen())
		off = bi.payloadOff + int64(meta.stored)
		if off > footerStart-1 {
			return nil, ffail(fmt.Errorf("block %d overruns the data area (ends at %d of %d)", i, off, footerStart-1))
		}
		c.blocks = append(c.blocks, bi)
		c.numEvents += meta.events
	}
	if off != footerStart-1 {
		return nil, ffail(fmt.Errorf("blocks end at %d but footer starts at %d", off, footerStart))
	}
	var sentinel [1]byte
	if err := c.readAt("reading vtr2 end-of-blocks sentinel", sentinel[:], off); err != nil {
		return nil, err
	}
	if sentinel[0] != 0 {
		return nil, corruptAt("reading vtr2 end-of-blocks sentinel", off, "want 0x00, found 0x%02x", sentinel[0])
	}
	numRegions, err := cur.readUvarint()
	if err != nil {
		return nil, ffail(err)
	}
	if numRegions > uint64(footerLen) {
		return nil, ffail(fmt.Errorf("footer declares %d regions in %d bytes", numRegions, footerLen))
	}
	for i := 0; i < int(numRegions); i++ {
		var v [4]uint64 // loopID, start, length, depth
		for j := range v {
			if v[j], err = cur.readUvarint(); err != nil {
				return nil, ffail(fmt.Errorf("region %d entry: %w", i, err))
			}
		}
		if v[0] > maxID {
			return nil, ffail(fmt.Errorf("region %d names loop ID %d (max %d)", i, v[0], int64(maxID)))
		}
		start, length := v[1], v[2]
		if start > uint64(c.numEvents) || length > uint64(c.numEvents)-start {
			return nil, ffail(fmt.Errorf("region %d spans [%d, %d) of %d events", i, start, start+length, c.numEvents))
		}
		c.regions = append(c.regions, IndexRegion{
			LoopID: int(v[0]),
			Start:  int(start),
			End:    int(start + length),
			Depth:  int(v[3]),
		})
	}
	if cur.off != int64(len(body)) {
		return nil, ffail(fmt.Errorf("%d trailing footer bytes", int64(len(body))-cur.off))
	}
	return c, nil
}

// NumEvents returns the total event count across all blocks.
func (c *Container) NumEvents() int { return c.numEvents }

// NumBlocks returns the block count.
func (c *Container) NumBlocks() int { return len(c.blocks) }

// Codec returns the container's codec name ("flate" or "none").
func (c *Container) Codec() string { return codecName(c.codec) }

// Regions returns the footer's region index in global close order. The
// returned slice is the container's own — callers must not mutate it.
func (c *Container) Regions() []IndexRegion { return c.regions }

// RegionsOf returns loopID's regions in close order — index k in the result
// is dynamic region k of that loop, the same numbering the sequential
// scanner and RegionReport.Index use.
func (c *Container) RegionsOf(loopID int) []IndexRegion {
	var out []IndexRegion
	for _, r := range c.regions {
		if r.LoopID == loopID {
			out = append(out, r)
		}
	}
	return out
}

// blockFor returns the index of the block containing absolute event idx.
func (c *Container) blockFor(idx int) int {
	return sort.Search(len(c.blocks), func(i int) bool {
		return c.blocks[i].first+c.blocks[i].events > idx
	})
}

// A Cursor reads event ranges from a Container through a single-block
// cache, so consecutive lookups touching the same block (the common case:
// a loop's regions cluster) decode it once. Each concurrent reader — every
// scan worker — owns its own Cursor; Cursors are not safe for concurrent
// use, the shared Container is.
type Cursor struct {
	c        *Container
	blockIdx int // block currently decoded in events, -1 when empty
	events   []Event
	frame    []byte // frame header + stored payload scratch
	dec      blockDecoder
}

// Cursor returns a new, empty cursor over the container.
func (c *Container) Cursor() *Cursor { return &Cursor{c: c, blockIdx: -1} }

// load decodes block i into the cursor's cache, verifying the on-wire
// frame header against the footer entry (disagreement means a lying footer
// or a damaged frame — corruption either way, named by block).
func (cu *Cursor) load(i int) error {
	if cu.blockIdx == i {
		return nil
	}
	c := cu.c
	b := c.blocks[i]
	hdrLen := b.frameHeaderLen()
	need := hdrLen + b.stored
	if cap(cu.frame) < need {
		cu.frame = make([]byte, need)
	}
	frame := cu.frame[:need]
	readCtx := fmt.Sprintf("reading vtr2 block %d", i)
	if err := c.readAt(readCtx, frame, b.off); err != nil {
		return err
	}
	hcur := byteCursor{br: bytes.NewReader(frame[:hdrLen])}
	onWire, err := parseBlockEntry(&hcur)
	if err != nil {
		return &OffsetError{Context: readCtx, Offset: b.off + hcur.off, Err: asCorrupt(err)}
	}
	if onWire != b.blockMeta {
		return corruptAt(readCtx, b.off, "frame header disagrees with footer index")
	}
	c.rec.Add(obs.TraceBlocksRead, 1)
	if b.compressed {
		c.rec.Add(obs.TraceBlocksDecompressed, 1)
	}
	events, err := cu.dec.decode(frame[hdrLen:], b.blockMeta, cu.events[:0])
	if err != nil {
		cu.blockIdx = -1
		cu.events = events[:0]
		return &OffsetError{Context: fmt.Sprintf("decoding vtr2 block %d", i), Offset: b.payloadOff, Err: err}
	}
	cu.blockIdx = i
	cu.events = events
	return nil
}

// EventRange appends events [start, end) to dst, decoding only the blocks
// the range covers.
func (cu *Cursor) EventRange(dst []Event, start, end int) ([]Event, error) {
	c := cu.c
	if start < 0 || end < start || end > c.numEvents {
		return dst, fmt.Errorf("trace: event range [%d, %d) outside container's %d events", start, end, c.numEvents)
	}
	for bi := c.blockFor(start); start < end; bi++ {
		if err := cu.load(bi); err != nil {
			return dst, err
		}
		b := c.blocks[bi]
		lo := start - b.first
		hi := end - b.first
		if hi > b.events {
			hi = b.events
		}
		dst = append(dst, cu.events[lo:hi]...)
		start = b.first + hi
	}
	return dst, nil
}

// WalkRegion hands region r's events to visit as slices of the cursor's
// block cache, one per covering block, decoding only those blocks. Every
// event of a slice has passed the ID check against mod before visit sees
// it; the slice is valid only until visit returns. After visit fails, the
// walk visits nothing more but still decodes and checks the region's
// remaining blocks, so damage anywhere in the region is always reported:
// err is the first decode error, else the first ID error, else nil, and
// visitErr is visit's own error. A sound region counts one index hit.
func (cu *Cursor) WalkRegion(mod *ir.Module, r IndexRegion, visit func([]Event) error) (visitErr, err error) {
	c := cu.c
	if r.Start < 0 || r.End < r.Start || r.End > c.numEvents {
		return nil, fmt.Errorf("trace: event range [%d, %d) outside container's %d events", r.Start, r.End, c.numEvents)
	}
	var idErr error
	for bi, start := c.blockFor(r.Start), r.Start; start < r.End; bi++ {
		if err := cu.load(bi); err != nil {
			return visitErr, err
		}
		b := c.blocks[bi]
		lo, hi := start-b.first, min(r.End-b.first, b.events)
		start = b.first + hi
		if idErr != nil {
			continue
		}
		events := cu.events[lo:hi]
		for i, ev := range events {
			if int(ev.ID) >= mod.NumInstrs {
				idErr = fmt.Errorf("trace: event %d: instruction ID %d not in module (%d instructions): %w",
					b.first+lo+i, ev.ID, mod.NumInstrs, ErrCorruptTrace)
				break
			}
		}
		if idErr == nil && visitErr == nil {
			visitErr = visit(events)
		}
	}
	if idErr != nil {
		return visitErr, idErr
	}
	c.rec.Add(obs.RegionIndexHits, 1)
	return visitErr, nil
}

// RegionTrace materializes one indexed region as a sub-trace over mod:
// WalkRegion collecting its slices. The analysis drivers walk regions
// instead; this is the materialized form tests and benchmarks compare
// them against.
func (cu *Cursor) RegionTrace(mod *ir.Module, r IndexRegion) (*Trace, error) {
	var events []Event
	_, err := cu.WalkRegion(mod, r, func(evs []Event) error {
		events = append(events, evs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Trace{Module: mod, Events: events}, nil
}

// A BlockSource is an EventSource walking a VTR2 file's block frames
// sequentially, never consulting the footer: the salvage path for
// containers whose footer is damaged or missing (every intact block before
// the damage still yields its events) and the sequential baseline the
// parallel scanner is differential-tested against. Damage surfaces as an
// OffsetError naming the block and byte offset, wrapping ErrCorruptTrace
// for malformed bytes — the same contract as the VTR1 Decoder, so the
// pipeline's degrade-per-region behaviour carries over unchanged.
type BlockSource struct {
	br      *bufio.Reader
	cur     byteCursor
	rec     *obs.Recorder
	codec   byte
	started bool
	done    bool
	block   int // index of the next block to read
	events  []Event
	pos     int
	payload []byte
	dec     blockDecoder
	err     error
}

// NewBlockSource returns a sequential reader of the VTR2 stream r. The
// header is checked on the first Next call. A nil recorder is fine.
func NewBlockSource(r io.Reader, rec *obs.Recorder) *BlockSource {
	br := bufio.NewReaderSize(r, 32<<10)
	return &BlockSource{br: br, cur: byteCursor{br: br}, rec: rec}
}

// fail latches a positioned error, classifying truncation as corruption
// exactly like the VTR1 decoder: EOF mid-structure becomes unexpected EOF
// wrapping ErrCorruptTrace; genuine reader failures pass through unmarked.
func (s *BlockSource) fail(context string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorruptTrace) {
		err = fmt.Errorf("%w: %w", err, ErrCorruptTrace)
	}
	s.err = &OffsetError{Context: context, Offset: s.cur.off, Err: err}
	return s.err
}

// fill reads and decodes the next block into the event buffer.
func (s *BlockSource) fill() error {
	if !s.started {
		s.started = true
		var hdr [headerLen]byte
		for i := range hdr {
			b, err := s.cur.readByte()
			if err != nil {
				return s.fail("reading vtr2 header", err)
			}
			hdr[i] = b
		}
		if string(hdr[:4]) != magic2 {
			return s.fail("reading vtr2 header", fmt.Errorf("bad magic %q: %w", hdr[:4], ErrCorruptTrace))
		}
		if hdr[4] > codecFlate {
			return s.fail("reading vtr2 header", fmt.Errorf("unknown codec %d: %w", hdr[4], ErrCorruptTrace))
		}
		s.codec = hdr[4]
	}
	frameCtx := fmt.Sprintf("reading vtr2 block %d", s.block)
	word, err := s.cur.readUvarint()
	if err != nil {
		return s.fail(frameCtx, err)
	}
	if word == 0 { // end-of-blocks sentinel; footer bytes stay unread
		s.done = true
		return nil
	}
	meta, err := parseBlockTail(&s.cur, word)
	if err != nil {
		return s.fail(frameCtx, err)
	}
	if meta.compressed && s.codec == codecNone {
		return s.fail(frameCtx, fmt.Errorf("compressed block in a codec-none container: %w", ErrCorruptTrace))
	}
	// The declared stored size is unverified until the payload checksum, so
	// read through the bounded-growth helper rather than allocating it up
	// front — a lying frame on a short input costs only the bytes present.
	payload, err := readAllLimit(s.br, &s.payload, meta.stored)
	s.cur.off += int64(len(payload))
	if err != nil {
		return s.fail(frameCtx, err)
	}
	s.rec.Add(obs.TraceBlocksRead, 1)
	if meta.compressed {
		s.rec.Add(obs.TraceBlocksDecompressed, 1)
	}
	decoded, err := s.dec.decode(payload, meta, s.events[:0])
	if err != nil {
		s.events = decoded[:0]
		return s.fail(fmt.Sprintf("decoding vtr2 block %d", s.block), err)
	}
	s.events = decoded
	s.pos = 0
	s.block++
	return nil
}

// Next returns the next event, or io.EOF after the last block.
func (s *BlockSource) Next() (Event, error) {
	if s.err != nil {
		return Event{}, s.err
	}
	for s.pos >= len(s.events) {
		if s.done {
			return Event{}, io.EOF
		}
		s.events = s.events[:0]
		s.pos = 0
		if err := s.fill(); err != nil {
			return Event{}, err
		}
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, nil
}

// A RegionWalk walks one indexed region's events through the scanning
// worker's cursor; its contract is Cursor.WalkRegion's. A walk that finds
// the region sound also counts it, and its events, as scanned.
type RegionWalk func(visit func([]Event) error) (visitErr, err error)

// ScanIndexedRegions walks the indexed regions of loop loopID across
// workers goroutines, calling handle(k, r, walk) once per region — k is
// the region's close-order index within the loop (the same numbering the
// sequential region feed reports), walk the way to its events, valid only
// during the call. handle runs concurrently on worker goroutines; callers
// writing to index-addressed slots need no further synchronization.
// Workers claim contiguous chunks of regions rather than single regions:
// many small regions usually share a block, and chunking keeps a block's
// regions on the cursor that already decoded it instead of making every
// worker inflate every block. Each worker owns a Cursor, and each
// worker's wall time lands in the "scan-worker" span aggregate. Returns
// ctx.Err() when canceled, nil otherwise — per-region failures are
// reported only through handle, keeping the degrade-per-region contract.
func (c *Container) ScanIndexedRegions(ctx context.Context, mod *ir.Module, loopID, workers int, handle func(k int, r IndexRegion, walk RegionWalk)) error {
	regions := c.RegionsOf(loopID)
	if len(regions) == 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(regions) {
		workers = len(regions)
	}
	// 8 chunks per worker balances load (region cost varies) against block
	// locality (chunk boundaries are where two cursors decode the same block).
	chunk := (len(regions) + workers*8 - 1) / (workers * 8)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cu := c.Cursor()
			t := c.rec.StartTimer("scan-worker")
			defer t.Stop()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(regions) || ctx.Err() != nil {
					return
				}
				hi := min(lo+chunk, len(regions))
				for k := lo; k < hi; k++ {
					if ctx.Err() != nil {
						return
					}
					r := regions[k]
					handle(k, r, func(visit func([]Event) error) (error, error) {
						verr, err := cu.WalkRegion(mod, r, visit)
						if err == nil {
							c.rec.Add(obs.EventsScanned, int64(r.Events()))
							c.rec.Add(obs.RegionsScanned, 1)
						}
						return verr, err
					})
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
