package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// The live progress printer: a single goroutine that snapshots the
// recorder on a throttle interval and writes one human line per snapshot,
// so a multi-gigabyte streaming analysis shows events/s, region outcomes,
// and an ETA on stderr instead of running dark. The printer never blocks
// the pipeline, and a slow or blocked output writer delays only the
// printer itself.

// DefaultProgressInterval is the throttle between progress lines.
const DefaultProgressInterval = 500 * time.Millisecond

// maxETASeconds caps the printed ETA: beyond a year the projection is
// noise, and unchecked it can overflow time.Duration (a near-zero rate
// against a large total projects past the int64 nanosecond horizon).
const maxETASeconds = 365 * 24 * 60 * 60

// A Progress prints throttled progress lines for one recorder until
// stopped. The nil Progress (from a nil recorder) is inert.
type Progress struct {
	rec      *Recorder
	w        io.Writer
	interval time.Duration

	mu   sync.Mutex // serializes line writes with the final Stop line
	done chan struct{}
	wg   sync.WaitGroup
}

// StartProgress begins printing progress lines for rec to w every
// interval (DefaultProgressInterval when interval <= 0). A nil recorder
// yields a nil Progress whose Stop is a no-op.
func StartProgress(rec *Recorder, w io.Writer, interval time.Duration) *Progress {
	if rec == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	p := &Progress{rec: rec, w: w, interval: interval, done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(p.interval)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				p.printLine(false)
			}
		}
	}()
	return p
}

// Stop halts the ticker and prints one final line (marked "done") so every
// observed run ends with a complete accounting even if it finished inside
// the first throttle window. Safe on nil; idempotent.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	close(p.done)
	p.wg.Wait()
	p.printLine(true)
}

// printLine snapshots the recorder and writes one progress line.
func (p *Progress) printLine(final bool) {
	line := progressLine(p.rec.Snapshot(), final)
	p.mu.Lock()
	fmt.Fprintln(p.w, line)
	p.mu.Unlock()
}

// progressLine renders one progress line from a snapshot; final marks the
// closing line, which drops the ETA.
func progressLine(s Snapshot, final bool) string {
	elapsed := s.Elapsed
	secs := elapsed.Seconds()
	events := s.Counters[EventsScanned]
	completed := s.Counters[RegionsCompleted]
	failed := s.Counters[RegionsFailed]
	read := s.Counters[TraceBytesRead]
	total := s.Counters[TraceBytesTotal]

	line := fmt.Sprintf("progress: %s  events %s", formatDuration(elapsed), formatCount(events))
	if secs > 0 && events > 0 {
		line += fmt.Sprintf(" (%s/s)", formatCount(int64(float64(events)/secs)))
	}
	line += fmt.Sprintf("  regions %d done / %d failed", completed, failed)
	if read > 0 {
		line += "  bytes " + formatBytes(read)
		rate := float64(0)
		if secs > 0 {
			rate = float64(read) / secs
		}
		// A total is only trustworthy when it bounds what was read:
		// service-mode runs (many jobs through one recorder) and growing
		// inputs leave total unset or stale, and percent/ETA computed from
		// a stale total are garbage. Fall back to rate-only output there.
		if total >= read {
			line += fmt.Sprintf("/%s (%.0f%%)", formatBytes(total), 100*float64(read)/float64(total))
			if !final && read < total && rate > 0 {
				if etaSecs := float64(total-read) / rate; etaSecs < maxETASeconds {
					line += "  eta " + formatDuration(time.Duration(etaSecs*float64(time.Second)))
				}
			}
		} else if rate > 0 {
			line += fmt.Sprintf(" (%s/s)", formatBytes(int64(rate)))
		}
	}
	if final {
		line += "  done"
	}
	return line
}

// formatCount renders large counts with k/M/G suffixes, one decimal.
func formatCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// formatBytes renders byte counts with binary suffixes.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// formatDuration renders durations at second granularity past a minute,
// tenths below.
func formatDuration(d time.Duration) string {
	if d >= time.Minute {
		return d.Round(time.Second).String()
	}
	return d.Round(100 * time.Millisecond).String()
}

// A CountingReader counts bytes delivered by an underlying reader into a
// recorder counter — how TraceBytesRead is fed without the decoder knowing
// about observability. Safe with a nil recorder (pure pass-through).
type CountingReader struct {
	R   io.Reader
	Rec *Recorder
	C   Counter
}

// Read implements io.Reader.
func (cr *CountingReader) Read(p []byte) (int, error) {
	n, err := cr.R.Read(p)
	if n > 0 {
		cr.Rec.Add(cr.C, int64(n))
	}
	return n, err
}
