package metricsrv

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/decwi/decwi/internal/telemetry"
)

// This file is the Prometheus text exposition writer (and its checker):
// the recorder's Name/Unit/Desc metadata becomes # HELP / # TYPE lines,
// and the instrument names are mangled into the Prometheus grammar.
//
// Mangling rule. Recorder names follow the repo convention
// `^[a-z0-9]+(\.[a-z0-9-]+)+$` with optional bracketed instance groups
// (`parallel.worker-busy[3]`, `stream.gamma[0].push`). The first bracket
// group anywhere in the name — trailing or mid-name — becomes an
// `instance="..."` label; remaining brackets are folded into the name.
// Dots and dashes map to underscores. The naming lint test in
// internal/telemetry pins that this mapping is total and collision-free
// for every name the stack registers.

// MangleName exposes the mangling rule so the repo-wide naming lint
// (metrics_lint_test.go in the root package) can assert the mapping
// stays collision-free as instrumentation sites are added. No binary
// calls it: it is test support.
func MangleName(name string) (mangled, instance string) { return promName(name) }

// promName mangles a recorder metric name into a Prometheus metric name
// plus an optional instance label value.
func promName(name string) (mangled, instance string) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		if j := strings.IndexByte(name[i:], ']'); j > 0 {
			instance = name[i+1 : i+j]
			name = name[:i] + name[i+j+1:]
		}
	}
	var b strings.Builder
	b.Grow(len(name) + len("decwi_"))
	b.WriteString("decwi_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), instance
}

// labelFor renders the optional instance label block ("" when absent).
func labelFor(instance string) string {
	if instance == "" {
		return ""
	}
	return `{instance="` + instance + `"}`
}

// promFamily groups the series of one mangled name so # HELP / # TYPE
// are emitted once per family, as the exposition format requires, even
// when many instances share the family.
type promFamily struct {
	name string // mangled
	typ  string // counter | gauge | histogram
	help string
	rows []promRow
}

type promRow struct {
	instance string
	counter  *telemetry.Counter
	gauge    *telemetry.Gauge
	hist     telemetry.HistogramSnapshot
}

// familyHelp builds the HELP line from the first-registered Desc + Unit.
func familyHelp(desc, unit string) string {
	h := desc
	if h == "" {
		h = "(no description)"
	}
	if unit != "" {
		h += " [" + unit + "]"
	}
	// The exposition format forbids raw newlines in HELP.
	return strings.ReplaceAll(h, "\n", " ")
}

// collectFamilies groups the recorder's instruments by mangled family
// name, in deterministic family order (sorted by name) with rows sorted
// by instance.
func collectFamilies(rec *telemetry.Recorder) []promFamily {
	byName := map[string]*promFamily{}
	var order []string
	add := func(name, typ, help string, row promRow) {
		mangled, instance := promName(name)
		row.instance = instance
		f, ok := byName[mangled]
		if !ok {
			f = &promFamily{name: mangled, typ: typ, help: help}
			byName[mangled] = f
			order = append(order, mangled)
		}
		f.rows = append(f.rows, row)
	}
	for _, c := range rec.Counters() {
		add(c.Name(), "counter", familyHelp(c.Desc(), c.Unit()), promRow{counter: c})
	}
	for _, g := range rec.Gauges() {
		add(g.Name(), "gauge", familyHelp(g.Desc(), g.Unit()), promRow{gauge: g})
	}
	for _, h := range rec.Histograms() {
		add(h.Name(), "histogram", familyHelp(h.Desc(), h.Unit()), promRow{hist: h.Snapshot()})
	}
	sort.Strings(order)
	out := make([]promFamily, 0, len(order))
	for _, n := range order {
		f := byName[n]
		sort.Slice(f.rows, func(i, j int) bool { return f.rows[i].instance < f.rows[j].instance })
		out = append(out, *f)
	}
	return out
}

// WriteExposition renders the recorder's counters, gauges and histograms
// in Prometheus text exposition format (version 0.0.4). Output is
// deterministic for a frozen recorder: families sorted by mangled name,
// rows by instance label.
func WriteExposition(w io.Writer, rec *telemetry.Recorder) error {
	bw := bufio.NewWriter(w)
	for _, f := range collectFamilies(rec) {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, row := range f.rows {
			lbl := labelFor(row.instance)
			switch f.typ {
			case "counter":
				fmt.Fprintf(bw, "%s%s %d\n", f.name, lbl, row.counter.Value())
			case "gauge":
				fmt.Fprintf(bw, "%s%s %d\n", f.name, lbl, row.gauge.Value())
			case "histogram":
				writeHistogram(bw, f.name, row.instance, row.hist)
			}
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative _bucket/_sum/_count series of one
// histogram row. Only buckets up to the first empty tail are emitted
// (plus +Inf), keeping 40-bucket families readable; cumulative counts
// are monotonically non-decreasing by construction.
func writeHistogram(w io.Writer, name, instance string, s telemetry.HistogramSnapshot) {
	// Find the last non-empty bucket so the exposition stops early, and
	// derive the count from the buckets themselves: a Record landing
	// between the snapshot's count and bucket loads could otherwise leave
	// the cumulative series above _count.
	last := -1
	var total int64
	for i, c := range s.Buckets {
		total += c
		if c > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last && i < telemetry.NumHistogramBuckets-1; i++ {
		cum += s.Buckets[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabel(instance, fmt.Sprintf("%d", telemetry.HistogramBound(i))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabel(instance, "+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %d\n", name, labelFor(instance), s.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelFor(instance), total)
}

// bucketLabel renders the {le="..."} label block, merged with the
// instance label when present.
func bucketLabel(instance, le string) string {
	if instance == "" {
		return `{le="` + le + `"}`
	}
	return `{instance="` + instance + `",le="` + le + `"}`
}

// CheckExposition validates a text exposition body: every sample line
// belongs to a family with preceding # HELP and # TYPE lines, histogram
// cumulative buckets are monotonically non-decreasing and end with
// le="+Inf" equal to _count. It returns the number of families seen per
// type. No binary calls it: it is test support for the metrics tests in
// the root package, cmd/decwi-served, cmd/decwi-gammagen, internal/serve
// and this package.
func CheckExposition(body string) (counters, gauges, histograms int, err error) {
	type famState struct {
		typ     string
		help    bool
		lastCum map[string]int64 // histogram: instance → last cumulative
		count   map[string]int64 // histogram: instance → _count value
		inf     map[string]int64 // histogram: instance → +Inf bucket
	}
	fams := map[string]*famState{}
	lineNo := 0
	for _, line := range strings.Split(body, "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found || name == "" {
				return 0, 0, 0, fmt.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			f := fams[name]
			if f == nil {
				f = &famState{}
				fams[name] = f
			}
			f.help = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				return 0, 0, 0, fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			f := fams[name]
			if f == nil || !f.help {
				return 0, 0, 0, fmt.Errorf("line %d: TYPE %s without preceding HELP", lineNo, name)
			}
			if f.typ != "" {
				return 0, 0, 0, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			switch typ {
			case "counter":
				counters++
			case "gauge":
				gauges++
			case "histogram":
				histograms++
				f.lastCum = map[string]int64{}
				f.count = map[string]int64{}
				f.inf = map[string]int64{}
			default:
				return 0, 0, 0, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
			}
			f.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		name, labels, value, perr := parseSample(line)
		if perr != nil {
			return 0, 0, 0, fmt.Errorf("line %d: %w", lineNo, perr)
		}
		fam := name
		kind := ""
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				if f := fams[base]; f != nil && f.typ == "histogram" {
					fam, kind = base, suffix
					break
				}
			}
		}
		f := fams[fam]
		if f == nil || f.typ == "" {
			return 0, 0, 0, fmt.Errorf("line %d: sample %q without HELP/TYPE", lineNo, name)
		}
		if f.typ == "histogram" {
			inst := labels["instance"]
			switch kind {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return 0, 0, 0, fmt.Errorf("line %d: histogram bucket without le label", lineNo)
				}
				if value < f.lastCum[inst] {
					return 0, 0, 0, fmt.Errorf("line %d: %s{instance=%q}: cumulative bucket decreased (%d < %d)",
						lineNo, fam, inst, value, f.lastCum[inst])
				}
				f.lastCum[inst] = value
				if le == "+Inf" {
					f.inf[inst] = value
				}
			case "_count":
				f.count[inst] = value
			}
		} else if kind != "" {
			return 0, 0, 0, fmt.Errorf("line %d: %s sample on non-histogram family", lineNo, name)
		}
	}
	for name, f := range fams {
		if f.typ == "" {
			return 0, 0, 0, fmt.Errorf("family %s: HELP without TYPE", name)
		}
		if f.typ == "histogram" {
			for inst, cnt := range f.count {
				if inf, ok := f.inf[inst]; !ok {
					return 0, 0, 0, fmt.Errorf("family %s instance %q: missing +Inf bucket", name, inst)
				} else if inf != cnt {
					return 0, 0, 0, fmt.Errorf("family %s instance %q: +Inf bucket %d != _count %d", name, inst, inf, cnt)
				}
			}
		}
	}
	return counters, gauges, histograms, nil
}

// parseSample splits `name{k="v",...} value` into its parts for
// CheckExposition (test support, like its caller). Label
// values produced by this package never contain escaped quotes, so the
// parser stops at the first unescaped quote.
func parseSample(line string) (name string, labels map[string]string, value int64, err error) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unterminated label block: %q", line)
		}
		for _, pair := range strings.Split(rest[i+1:j], ",") {
			k, v, found := strings.Cut(pair, "=")
			if !found {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			labels[k] = strings.Trim(v, `"`)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		var found bool
		name, rest, found = strings.Cut(rest, " ")
		if !found {
			return "", nil, 0, fmt.Errorf("sample without value: %q", line)
		}
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d", &value); err != nil {
		return "", nil, 0, fmt.Errorf("non-integer sample value in %q", line)
	}
	return name, labels, value, nil
}
