package obs

import (
	"strings"
	"testing"
)

// TestProgressETAGuard pins the ETA/percent guard: both render only when
// the byte total actually bounds what was read. Service-mode runs stream
// many jobs' bytes through one recorder with no meaningful total, and a
// percent or ETA computed against a stale total is garbage — those lines
// must fall back to rate-only output.
func TestProgressETAGuard(t *testing.T) {
	// Trustworthy total: percent and ETA both print.
	r := New()
	r.Add(TraceBytesRead, 500)
	r.Set(TraceBytesTotal, 1000)
	line := progressLine(r.Snapshot(), false)
	if !strings.Contains(line, "(50%)") || !strings.Contains(line, "eta ") {
		t.Errorf("bounded total lost percent/eta: %q", line)
	}

	// Stale total (read overtook it — the service-mode shape): no percent,
	// no ETA, just the byte rate.
	r2 := New()
	r2.Add(TraceBytesRead, 5000)
	r2.Set(TraceBytesTotal, 1000)
	line = progressLine(r2.Snapshot(), false)
	if strings.Contains(line, "%") || strings.Contains(line, "eta ") {
		t.Errorf("stale total produced percent/eta: %q", line)
	}
	if !strings.Contains(line, "/s)") {
		t.Errorf("stale total lost the rate fallback: %q", line)
	}

	// Unset total (zero) with bytes read behaves the same.
	r3 := New()
	r3.Add(TraceBytesRead, 5000)
	line = progressLine(r3.Snapshot(), false)
	if strings.Contains(line, "%") || strings.Contains(line, "eta ") {
		t.Errorf("unset total produced percent/eta: %q", line)
	}

	// A near-zero rate against an enormous total must not print an
	// absurd (or overflowed) ETA; the percent is still honest.
	r4 := New()
	r4.Add(TraceBytesRead, 1)
	r4.Set(TraceBytesTotal, 1<<62)
	line = progressLine(r4.Snapshot(), false)
	if strings.Contains(line, "eta ") {
		t.Errorf("year-plus projection printed an eta: %q", line)
	}
	if strings.Contains(line, "-") && strings.Contains(line, "eta") {
		t.Errorf("eta overflowed negative: %q", line)
	}

	// The final line never carries an ETA.
	line = progressLine(r.Snapshot(), true)
	if strings.Contains(line, "eta ") || !strings.Contains(line, "done") {
		t.Errorf("final line = %q", line)
	}
}
