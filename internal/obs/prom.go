package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (format 0.0.4). The recorder's counters,
// gauges, and histograms render as typed metric families so a stock
// Prometheus scrape of vectraced's /metrics works with no exporter in
// between. The mapping:
//
//   - monotonic counters  → vectrace_<name>_total (TYPE counter)
//   - gauges / high-water → vectrace_<name>       (TYPE gauge)
//   - histograms          → one family per key prefix, labeled:
//       "stage:parse"         → vectrace_stage_duration_seconds{stage="parse"}
//       "http:POST /v1/jobs"  → vectrace_http_request_duration_seconds{endpoint="POST /v1/jobs"}
//       anything else ("job") → vectrace_duration_seconds{op="job"}
//
// Durations export in seconds (the Prometheus base unit); bucket bounds
// are the histogram's log-spaced microsecond powers converted to seconds,
// cumulative per the exposition contract, ending at le="+Inf". Output is
// deterministic: families and label values sort lexically, which is what
// the golden test pins.

// PromContentType is the Content-Type for text-format exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// gaugeCounters is the subset of Counter indices that are point-in-time
// or high-water values rather than monotonically increasing totals; they
// export as TYPE gauge without the _total suffix.
var gaugeCounters = map[Counter]bool{
	TraceBytesTotal:         true,
	ScanPeakRetainedEvents:  true,
	ResidentRegions:         true,
	PeakResidentRegions:     true,
	InterpSteps:             true,
	InterpStackBytes:        true,
	BudgetMaxSteps:          true,
	BudgetMaxAnalysisBytes:  true,
	AnalysisFootprintBytes:  true,
	ShadowPeakLiveAddresses: true,
	HeapAllocPeakBytes:      true,
	HeapSysPeakBytes:        true,
	QueueDepth:              true,
	QueueDepthPeak:          true,
}

// histFamily maps a recorder histogram key to its exposition family name
// and label pair.
func histFamily(key string) (family, label, value string) {
	switch {
	case strings.HasPrefix(key, "stage:"):
		return "vectrace_stage_duration_seconds", "stage", key[len("stage:"):]
	case strings.HasPrefix(key, "http:"):
		return "vectrace_http_request_duration_seconds", "endpoint", key[len("http:"):]
	default:
		return "vectrace_duration_seconds", "op", key
	}
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// promFloat renders a float sample value (shortest round-trip form).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes a snapshot as text exposition. The zero snapshot
// (from a nil recorder) writes the uptime gauge and every counter at zero,
// so the endpoint answers something well-formed even before observability
// wires up.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "# HELP vectrace_run_duration_seconds Wall time since the recorder started.\n")
	fmt.Fprintf(bw, "# TYPE vectrace_run_duration_seconds gauge\n")
	fmt.Fprintf(bw, "vectrace_run_duration_seconds %s\n", promFloat(s.Elapsed.Seconds()))

	// Counters and gauges, in declaration order (stable and meaningful:
	// ingest → analysis → service).
	for c := Counter(0); c < numCounters; c++ {
		v := s.Counters[c]
		if gaugeCounters[c] {
			fmt.Fprintf(bw, "# TYPE vectrace_%s gauge\n", c.Name())
			fmt.Fprintf(bw, "vectrace_%s %d\n", c.Name(), v)
		} else {
			fmt.Fprintf(bw, "# TYPE vectrace_%s_total counter\n", c.Name())
			fmt.Fprintf(bw, "vectrace_%s_total %d\n", c.Name(), v)
		}
	}

	// Histograms, grouped into families, families and labels sorted.
	type labeled struct {
		label, value string
		snap         HistogramSnapshot
	}
	families := map[string][]labeled{}
	for key, h := range s.Histograms {
		fam, label, value := histFamily(key)
		families[fam] = append(families[fam], labeled{label: label, value: value, snap: h})
	}
	famNames := make([]string, 0, len(families))
	for f := range families {
		famNames = append(famNames, f)
	}
	sort.Strings(famNames)
	for _, fam := range famNames {
		series := families[fam]
		sort.Slice(series, func(i, j int) bool { return series[i].value < series[j].value })
		fmt.Fprintf(bw, "# TYPE %s histogram\n", fam)
		for _, sr := range series {
			lbl := fmt.Sprintf("%s=%q", sr.label, escapeLabel(sr.value))
			var cum int64
			for i := 0; i < histBuckets; i++ {
				if len(sr.snap.Buckets) == histBuckets {
					cum += sr.snap.Buckets[i]
				}
				le := "+Inf"
				if ub := HistBucketUpperNs(i); ub >= 0 {
					le = promFloat(time.Duration(ub).Seconds())
				}
				fmt.Fprintf(bw, "%s_bucket{%s,le=%q} %d\n", fam, lbl, le, cum)
			}
			fmt.Fprintf(bw, "%s_sum{%s} %s\n", fam, lbl, promFloat(time.Duration(sr.snap.SumNs).Seconds()))
			fmt.Fprintf(bw, "%s_count{%s} %d\n", fam, lbl, sr.snap.Count)
		}
	}
	return bw.Flush()
}

// LintExposition validates Prometheus text-format output: every sample
// belongs to a family declared by a preceding # TYPE line, names and
// label syntax are well formed, no duplicate samples, counters and
// histogram cumulative buckets are non-decreasing, and every histogram
// series ends at le="+Inf" with a matching _count. It is the in-repo
// gate CI runs against a live /metrics scrape — deliberately strict about
// the subset this exporter emits rather than a full grammar.
func LintExposition(data []byte) error {
	types := map[string]string{} // family -> type
	seen := map[string]bool{}    // full sample key -> present
	type histState struct {
		lastCum  int64
		lastLe   string
		sawInf   bool
		infCount int64
	}
	hists := map[string]*histState{} // family+labels (minus le) -> state

	lineNo := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: malformed TYPE comment: %s", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !validMetricName(name) {
					return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = typ
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count", "_total"} {
			if strings.HasSuffix(name, s) {
				if t, ok := types[strings.TrimSuffix(name, s)]; ok &&
					(t == "histogram" || t == "summary" || (s == "_total" && t == "counter")) {
					fam, suffix = strings.TrimSuffix(name, s), s
				}
				break
			}
		}
		if _, ok := types[fam]; !ok {
			if _, ok := types[name]; ok {
				fam, suffix = name, ""
			} else {
				return fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
			}
		}
		key := name + "{" + labels + "}"
		if seen[key] {
			return fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
		if types[fam] == "counter" && value < 0 {
			return fmt.Errorf("line %d: counter %s is negative", lineNo, name)
		}
		if types[fam] == "histogram" {
			base, le, hasLe := splitLe(labels)
			hk := fam + "{" + base + "}"
			st := hists[hk]
			if st == nil {
				st = &histState{lastCum: -1}
				hists[hk] = st
			}
			switch suffix {
			case "_bucket":
				if !hasLe {
					return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				cum := int64(value)
				if cum < st.lastCum {
					return fmt.Errorf("line %d: histogram %s buckets not cumulative (%d after %d)", lineNo, hk, cum, st.lastCum)
				}
				st.lastCum, st.lastLe = cum, le
				if le == "+Inf" {
					st.sawInf, st.infCount = true, cum
				}
			case "_count":
				if st.sawInf && int64(value) != st.infCount {
					return fmt.Errorf("line %d: histogram %s count %d != +Inf bucket %d", lineNo, hk, int64(value), st.infCount)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if len(seen) == 0 {
		return fmt.Errorf("exposition contains no samples")
	}
	for hk, st := range hists {
		if !st.sawInf {
			return fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", hk)
		}
	}
	return nil
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// parseSample splits one sample line into name, raw label string (without
// braces, "" when absent), and value.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		name = rest[:i]
		j := strings.LastIndex(rest, "}")
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q", line)
		}
		name = fields[0]
		rest = fields[1]
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return "", "", 0, fmt.Errorf("sample %q has no value", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("sample %q value: %v", line, err)
	}
	return name, labels, value, nil
}

// splitLe removes the le="..." pair from a raw label string, returning
// the remaining labels and the le value.
func splitLe(labels string) (base, le string, ok bool) {
	const marker = `le="`
	i := strings.Index(labels, marker)
	if i < 0 {
		return labels, "", false
	}
	j := i + len(marker)
	k := strings.Index(labels[j:], `"`)
	if k < 0 {
		return labels, "", false
	}
	le = labels[j : j+k]
	base = strings.Trim(strings.TrimSuffix(labels[:i], ","), ",")
	if tail := strings.TrimPrefix(labels[j+k+1:], ","); tail != "" {
		if base != "" {
			base += ","
		}
		base += tail
	}
	return base, le, true
}
