package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): a # HELP / # TYPE header per family, one sample
// line per child, histograms expanded into cumulative _bucket series plus
// _sum and _count. Output is fully deterministic — families sorted by
// name, children by label values — so it golden-tests cleanly and diffs
// between scrapes are meaningful.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// write renders one family. Families with no children yet are skipped
// entirely (no orphan HELP/TYPE headers). Funcs are called after the
// family lock is released.
func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()

	if len(children) == 0 {
		return
	}
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	for _, c := range children {
		switch m := c.(type) {
		case func() float64:
			sample(b, f.name, nil, nil, "", "", m())
		case *Counter:
			sample(b, f.name, f.labelNames, m.labels, "", "", m.Value())
		case *Gauge:
			sample(b, f.name, f.labelNames, m.labels, "", "", m.Value())
		case *Histogram:
			var cum uint64
			for i, bound := range m.buckets {
				cum += m.counts[i].Load()
				sample(b, f.name+"_bucket", f.labelNames, m.labels,
					"le", formatFloat(bound), float64(cum))
			}
			cum += m.counts[len(m.buckets)].Load()
			sample(b, f.name+"_bucket", f.labelNames, m.labels, "le", "+Inf", float64(cum))
			sample(b, f.name+"_sum", f.labelNames, m.labels, "", "", m.Sum())
			sample(b, f.name+"_count", f.labelNames, m.labels, "", "", float64(m.Count()))
		}
	}
}

// sample writes one exposition line. extraName/extraValue append a
// trailing synthetic label (the histogram "le").
func sample(b *strings.Builder, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	b.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				b.WriteByte(',')
			}
			// Go %q escaping covers the exposition format's label rules
			// (backslash, quote, newline) for the ASCII names used here.
			fmt.Fprintf(b, "%s=%q", ln, labelValues[i])
		}
		if extraName != "" {
			if len(labelNames) > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", extraName, extraValue)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
