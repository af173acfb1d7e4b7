package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Per-job trace trees. Every recorder can carry a W3C-style trace
// identity: a 16-byte trace id (either generated locally or adopted from
// an ingress `traceparent` header) plus monotonically allocated 8-byte
// span ids. StartSpan threads the parent span id through the context, so
// the recorded spans form a parent-linked tree — the decomposition of one
// job into admission-wait → parse → check → lower → interp →
// region-analyze → report, with real durations — served by vectraced at
// GET /v1/jobs/{id}/trace and embedded in RunStats span entries.
//
// Span ids are a per-recorder counter, not random: a job owns its
// recorder, so ids are unique within the trace (all W3C requires), and a
// counter keeps allocation free and the root span's id predictable (the
// first allocated id, 0x1), which lets the submit handler echo a complete
// traceparent before the job has run.

// traceIDRand is the entropy source for generated trace ids (injectable
// in tests; crypto/rand in production).
var traceIDRand = crand.Read

// NewTraceID returns a random 32-hex-digit W3C trace id. It falls back to
// a time-derived id if the entropy source fails (a trace id must never be
// the reason a job fails).
func NewTraceID() string {
	var b [16]byte
	if _, err := traceIDRand(b[:]); err != nil || b == ([16]byte{}) {
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
		binary.BigEndian.PutUint64(b[8:], ^uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// SpanIDString renders a recorder-allocated span id as 16 hex digits (the
// W3C parent-id field width). Id 0 — "no span" — renders empty.
func SpanIDString(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// ParseTraceparent parses a W3C traceparent header
// (version-traceid-parentid-flags, e.g.
// "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"). It accepts
// any non-ff version per the spec's forward-compatibility rule, requires
// lowercase hex, and rejects the all-zero ids the spec reserves.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 {
		return "", "", false
	}
	ver, tid, pid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || !isLowerHex(ver) || ver == "ff" {
		return "", "", false
	}
	if len(tid) != 32 || !isLowerHex(tid) || tid == strings.Repeat("0", 32) {
		return "", "", false
	}
	if len(pid) != 16 || !isLowerHex(pid) || pid == strings.Repeat("0", 16) {
		return "", "", false
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return "", "", false
	}
	return tid, pid, true
}

// Traceparent formats a traceparent header for the given trace and span
// ids, always sampled (this service records every job it admits).
func Traceparent(traceID string, spanID uint64) string {
	return fmt.Sprintf("00-%s-%s-01", traceID, SpanIDString(spanID))
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SetTraceParent adopts an ingress trace identity: the job joins the
// caller's trace, and the caller's span becomes the remote parent of the
// job's root span. First write wins; no-op on nil.
func (r *Recorder) SetTraceParent(traceID, parentSpanID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.traceID == "" {
		r.traceID = traceID
		r.remoteParent = parentSpanID
	}
	r.mu.Unlock()
}

// EnsureTraceID returns the recorder's trace id, generating one on first
// use. Returns "" on a nil recorder.
func (r *Recorder) EnsureTraceID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	if r.traceID == "" {
		r.traceID = NewTraceID()
	}
	id := r.traceID
	r.mu.Unlock()
	return id
}

// NewSpanID allocates the next span id (0 on a nil recorder).
func (r *Recorder) NewSpanID() uint64 {
	if r == nil {
		return 0
	}
	return r.spanSeq.Add(1)
}

// A TraceSpan is one node of an exported trace tree.
type TraceSpan struct {
	Name         string       `json:"name"`
	SpanID       string       `json:"span_id"`
	ParentSpanID string       `json:"parent_span_id,omitempty"`
	StartNs      int64        `json:"start_ns"`
	DurNs        int64        `json:"dur_ns"`
	Children     []*TraceSpan `json:"children,omitempty"`
}

// A TraceTree is the parent-linked span tree of one recorder (one job):
// the document GET /v1/jobs/{id}/trace serves. StartNs values are
// relative to the recorder's start, so the tree orders and nests without
// absolute clocks.
type TraceTree struct {
	TraceID string `json:"trace_id"`
	// RemoteParentSpanID is the ingress traceparent's span id when the job
	// joined a caller's trace; the root spans are its children.
	RemoteParentSpanID string `json:"remote_parent_span_id,omitempty"`
	// SpanCount counts materialized spans; SpansDropped counts spans the
	// recording caps elided (their time is still in the parents).
	SpanCount    int          `json:"span_count"`
	SpansDropped int64        `json:"spans_dropped,omitempty"`
	Roots        []*TraceSpan `json:"roots"`
}

// TraceTree assembles the snapshot's spans into a parent-linked tree.
// Spans whose parent was dropped by the recording caps (or not yet ended)
// surface as roots rather than disappearing. The zero snapshot renders
// the empty tree.
func (s Snapshot) TraceTree() *TraceTree {
	t := &TraceTree{
		TraceID:            s.TraceID,
		RemoteParentSpanID: s.RemoteParentSpanID,
		SpansDropped:       s.SpansDropped,
		Roots:              []*TraceSpan{},
	}
	nodes := make(map[uint64]*TraceSpan, len(s.Spans))
	for _, sp := range s.Spans {
		if sp.ID == 0 {
			continue
		}
		nodes[sp.ID] = &TraceSpan{
			Name:         sp.Name,
			SpanID:       SpanIDString(sp.ID),
			ParentSpanID: SpanIDString(sp.ParentID),
			StartNs:      sp.StartNs,
			DurNs:        sp.DurNs,
		}
	}
	t.SpanCount = len(nodes)
	for _, sp := range s.Spans {
		n := nodes[sp.ID]
		if n == nil {
			continue
		}
		if p := nodes[sp.ParentID]; p != nil && sp.ParentID != sp.ID {
			p.Children = append(p.Children, n)
		} else {
			if n.ParentSpanID == "" && t.RemoteParentSpanID != "" {
				n.ParentSpanID = t.RemoteParentSpanID
			}
			t.Roots = append(t.Roots, n)
		}
	}
	var order func([]*TraceSpan)
	order = func(ns []*TraceSpan) {
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].StartNs != ns[j].StartNs {
				return ns[i].StartNs < ns[j].StartNs
			}
			return ns[i].SpanID < ns[j].SpanID
		})
		for _, n := range ns {
			order(n.Children)
		}
	}
	order(t.Roots)
	return t
}
