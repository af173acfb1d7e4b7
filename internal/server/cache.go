package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"github.com/example/vectrace/internal/obs"
)

// resultCache is the content-addressed report cache: SHA-256 of the
// submission's inputs × output-affecting config → canonical report JSON.
// It is also a single-flight group — concurrent jobs with the same key
// coalesce onto one computation, and the waiters count as cache hits.
//
// Failure semantics matter more than hit rate here: a failed computation
// is never cached (its outcome may be budget- or deadline-dependent, so
// one tenant's tight deadline must not poison the result for everyone),
// and when a leader fails its waiters retry as new leaders rather than
// inheriting the failure. Entries are evicted FIFO past the capacity.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	order   []string
}

type cacheEntry struct {
	done   chan struct{} // closed once the leader finishes
	report []byte
	err    error
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, entries: make(map[string]*cacheEntry)}
}

// do returns the cached report for key, computing it via compute when
// absent. The boolean reports whether the result came from the cache (a
// stored entry or a coalesced in-flight leader). A disabled cache
// (max <= 0) computes every time.
func (c *resultCache) do(ctx context.Context, key string, rec *obs.Recorder, compute func() ([]byte, error)) ([]byte, bool, error) {
	if c == nil || c.max <= 0 {
		rec.Add(obs.CacheMisses, 1)
		report, err := compute()
		return report, false, err
	}
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if !ok {
			e = &cacheEntry{done: make(chan struct{})}
			c.entries[key] = e
			c.order = append(c.order, key)
			c.evictLocked()
			c.mu.Unlock()

			rec.Add(obs.CacheMisses, 1)
			report, err := compute()
			e.report, e.err = report, err
			if err != nil {
				// Don't cache failures: drop the entry so the next
				// request retries from scratch.
				c.mu.Lock()
				if cur, still := c.entries[key]; still && cur == e {
					delete(c.entries, key)
				}
				c.mu.Unlock()
			}
			close(e.done)
			return report, false, err
		}
		c.mu.Unlock()

		select {
		case <-e.done:
			if e.err == nil {
				rec.Add(obs.CacheHits, 1)
				return e.report, true, nil
			}
			// The leader failed and removed the entry; loop and race to
			// become the next leader.
		case <-ctx.Done():
			return nil, false, context.Cause(ctx)
		}
	}
}

// evictLocked drops the oldest entries beyond capacity. Evicting an
// in-flight entry only unlinks it from the map; its leader and waiters
// hold the pointer and complete normally.
func (c *resultCache) evictLocked() {
	for len(c.order) > c.max {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, old)
	}
}

// cacheKey derives the content address of a job: a SHA-256 over the job
// kind, the output-affecting config fields, and the uploaded inputs.
// Tuning knobs that provably do not change output bytes — workers, scan
// workers, and the ignored tile field — are excluded so differently-tuned submissions of
// the same work coalesce. Budgets and deadlines are excluded too: they
// only influence *whether* a job succeeds, and failures are never cached.
func cacheKey(spec JobSpec, source string, payload []byte) string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeInt := func(v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	writeBool := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	writeStr("vectraced-cache-v1")
	writeStr(spec.Kind)
	writeStr(spec.Filename)
	writeInt(int64(spec.Line))
	writeInt(int64(spec.Instance))
	writeInt(int64(spec.Table))
	writeBool(spec.RelaxReductions)
	writeBool(spec.IntOps)
	writeStr(source)
	writeInt(int64(len(payload)))
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}
