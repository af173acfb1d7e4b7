package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestParseTraceparent covers the W3C header grammar: the accepted shape,
// forward-compatible versions, and every reserved/malformed form the spec
// rejects. Malformed headers must parse as !ok — the server ignores them
// rather than rejecting work.
func TestParseTraceparent(t *testing.T) {
	const tid = "0af7651916cd43dd8448eb211c80319c"
	const pid = "b7ad6b7169203331"
	good := "00-" + tid + "-" + pid + "-01"
	if gt, gp, ok := ParseTraceparent(good); !ok || gt != tid || gp != pid {
		t.Errorf("ParseTraceparent(%q) = %q %q %v", good, gt, gp, ok)
	}
	// Future versions parse (forward compatibility), surrounding space is
	// trimmed, any flag byte is accepted.
	for _, h := range []string{
		"01-" + tid + "-" + pid + "-01",
		"cc-" + tid + "-" + pid + "-00",
		"  00-" + tid + "-" + pid + "-01  ",
		"00-" + tid + "-" + pid + "-ff",
	} {
		if _, _, ok := ParseTraceparent(h); !ok {
			t.Errorf("ParseTraceparent(%q) rejected, want accepted", h)
		}
	}
	bad := []string{
		"",
		"garbage",
		"00-" + tid + "-" + pid,         // missing flags
		"ff-" + tid + "-" + pid + "-01", // version ff reserved
		"00-" + strings.Repeat("0", 32) + "-" + pid + "-01", // all-zero trace id
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // all-zero parent id
		"00-" + strings.ToUpper(tid) + "-" + pid + "-01",    // uppercase hex
		"00-" + tid[:31] + "-" + pid + "-01",                // short trace id
		"00-" + tid + "x-" + pid + "-01",                    // bad length + non-hex
		"00-" + tid + "-" + pid[:15] + "g-01",               // non-hex parent
		"0-" + tid + "-" + pid + "-01",                      // short version
	}
	for _, h := range bad {
		if gt, gp, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %q/%q, want rejected", h, gt, gp)
		}
	}
}

// TestTraceparentRoundTrip: a formatted header parses back to the same
// identity.
func TestTraceparentRoundTrip(t *testing.T) {
	r := New()
	tid := r.EnsureTraceID()
	if len(tid) != 32 || !isLowerHex(tid) {
		t.Fatalf("EnsureTraceID = %q, want 32 lowercase hex digits", tid)
	}
	if again := r.EnsureTraceID(); again != tid {
		t.Errorf("EnsureTraceID not stable: %q then %q", tid, again)
	}
	id := r.NewSpanID()
	h := Traceparent(tid, id)
	gt, gp, ok := ParseTraceparent(h)
	if !ok || gt != tid || gp != SpanIDString(id) {
		t.Errorf("round trip %q = %q %q %v", h, gt, gp, ok)
	}
	if SpanIDString(0) != "" {
		t.Error("span id 0 must render empty")
	}
	if s := SpanIDString(0xabc); s != "0000000000000abc" {
		t.Errorf("SpanIDString(0xabc) = %q", s)
	}
}

// TestNewTraceIDFallback: a failing entropy source must still yield a
// usable id — a trace id is never the reason a job fails.
func TestNewTraceIDFallback(t *testing.T) {
	orig := traceIDRand
	defer func() { traceIDRand = orig }()
	traceIDRand = func(b []byte) (int, error) { return 0, errors.New("injected") }
	id := NewTraceID()
	if len(id) != 32 || !isLowerHex(id) || id == strings.Repeat("0", 32) {
		t.Errorf("fallback trace id = %q, want 32 non-zero lowercase hex", id)
	}
}

// TestSetTraceParent: the ingress identity is adopted once; later writes
// (and EnsureTraceID) must not replace it.
func TestSetTraceParent(t *testing.T) {
	r := New()
	r.SetTraceParent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")
	r.SetTraceParent("ffffffffffffffffffffffffffffffff", "aaaaaaaaaaaaaaaa")
	if got := r.EnsureTraceID(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id = %q, want first write to win", got)
	}
	tree := r.Snapshot().TraceTree()
	if tree.RemoteParentSpanID != "b7ad6b7169203331" {
		t.Errorf("remote parent = %q", tree.RemoteParentSpanID)
	}
}

// TestTraceTree builds the server's exact span topology — a pre-allocated
// root with RecordSpanAt, a synthetic admission-wait, and nested pipeline
// stages via SpanContext/StartSpan — and checks the assembled tree.
func TestTraceTree(t *testing.T) {
	r := New()
	r.SetTraceParent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")
	r.EnsureTraceID()
	root := r.NewSpanID()
	submitted := time.Now()

	r.RecordSpanAt("admission-wait", r.NewSpanID(), root, "job", submitted, time.Millisecond)
	ctx := r.SpanContext(context.Background(), "job", root)
	pctx, parse := StartSpan(ctx, "parse")
	_, inner := StartSpan(pctx, "lower")
	inner.End()
	parse.End()
	r.RecordSpanAt("job", root, 0, "", submitted, 10*time.Millisecond)

	tree := r.Snapshot().TraceTree()
	if tree.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("tree trace id = %q", tree.TraceID)
	}
	if tree.SpanCount != 4 || tree.SpansDropped != 0 {
		t.Errorf("span count = %d dropped %d, want 4/0", tree.SpanCount, tree.SpansDropped)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1 (the job span)", len(tree.Roots))
	}
	job := tree.Roots[0]
	if job.Name != "job" || job.SpanID != SpanIDString(root) {
		t.Fatalf("root = %+v, want the job span", job)
	}
	// The local root joins the caller's trace under the ingress span.
	if job.ParentSpanID != "b7ad6b7169203331" {
		t.Errorf("root parent = %q, want the remote parent", job.ParentSpanID)
	}
	if len(job.Children) != 2 {
		t.Fatalf("job children = %d, want admission-wait + parse", len(job.Children))
	}
	// Children sort by start time: admission-wait first.
	if job.Children[0].Name != "admission-wait" || job.Children[1].Name != "parse" {
		t.Errorf("children = %s, %s", job.Children[0].Name, job.Children[1].Name)
	}
	p := job.Children[1]
	if len(p.Children) != 1 || p.Children[0].Name != "lower" {
		t.Errorf("parse children = %+v, want one lower span", p.Children)
	}
}

// TestTraceTreeOrphans: spans whose parent never materialized (dropped by
// caps, or still open) surface as roots instead of disappearing.
func TestTraceTreeOrphans(t *testing.T) {
	r := New()
	r.RecordSpanAt("stray", r.NewSpanID(), 999, "gone", time.Now(), time.Millisecond)
	tree := r.Snapshot().TraceTree()
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "stray" {
		t.Errorf("orphan not surfaced as root: %+v", tree.Roots)
	}
}
