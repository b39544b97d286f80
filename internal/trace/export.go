package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// Export is the serialized form of a span tree — the JSON schema consumed
// by benchall -traceout (documented in DESIGN.md § Observability). Open
// spans export their elapsed-so-far duration.
type Export struct {
	// Name is the span name ("cell lp1/MM/RAND/CPU", "decomp", ...).
	Name string `json:"name"`
	// StartNs is the span's wall-clock start in Unix nanoseconds (0 for
	// the synthetic root, which is never timed). Absolute rather than
	// parent-relative so ExportChromeTrace can place spans — and the gaps
	// between them — on a real timeline.
	StartNs int64 `json:"start_ns,omitempty"`
	// DurNs is the span wall time in nanoseconds.
	DurNs int64 `json:"dur_ns"`
	// Counters are the span's named accumulators.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Series are the span's per-round sequences.
	Series map[string][]int64 `json:"series,omitempty"`
	// Children are the nested phases, in Begin order.
	Children []Export `json:"children,omitempty"`
}

// Dur is the span wall time as a Duration.
func (e Export) Dur() time.Duration { return time.Duration(e.DurNs) }

// ChildSum is the total wall time of the direct children — compare
// against Dur to see how much of a phase its sub-phases account for.
func (e Export) ChildSum() time.Duration {
	var sum int64
	for _, c := range e.Children {
		sum += c.DurNs
	}
	return time.Duration(sum)
}

// Counter returns the named counter, or 0.
func (e Export) Counter(name string) int64 { return e.Counters[name] }

// Find returns the first child (depth-first, pre-order, including e
// itself) whose name equals name, or nil.
func (e Export) Find(name string) *Export {
	if e.Name == name {
		return &e
	}
	for i := range e.Children {
		if f := e.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// export copies a span subtree. Caller holds the owning collector's mu.
func export(s *Span) Export {
	e := Export{Name: s.name, DurNs: int64(s.dur)}
	if !s.start.IsZero() {
		e.StartNs = s.start.UnixNano()
		if !s.done {
			e.DurNs = int64(time.Since(s.start))
		}
	}
	if len(s.counters) > 0 {
		e.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			e.Counters[k] = v
		}
	}
	if len(s.series) > 0 {
		e.Series = make(map[string][]int64, len(s.series))
		for k, v := range s.series {
			e.Series[k] = slices.Clone(v)
		}
	}
	for _, c := range s.children {
		e.Children = append(e.Children, export(c))
	}
	return e
}

// WriteJSON writes the export as indented JSON.
func (e Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// Render formats the tree as an indented human table: one line per span
// with its duration, share of the parent, and counters (series render as
// their length and last value). The root line is omitted when it carries
// no counters.
func (e Export) Render() string {
	var b strings.Builder
	if len(e.Counters) == 0 && e.Name == "trace" {
		for _, c := range e.Children {
			renderSpan(&b, c, 0, e.Dur())
		}
	} else {
		renderSpan(&b, e, 0, 0)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, e Export, depth int, parentDur time.Duration) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%-*s %10s", 40-2*depth, e.Name, fmtTraceDur(e.Dur()))
	if parentDur > 0 {
		fmt.Fprintf(b, " %5.1f%%", 100*float64(e.DurNs)/float64(parentDur))
	} else {
		b.WriteString("       ")
	}
	for _, k := range sortedKeys(e.Counters) {
		fmt.Fprintf(b, "  %s=%d", k, e.Counters[k])
	}
	for _, k := range sortedKeys(e.Series) {
		s := e.Series[k]
		fmt.Fprintf(b, "  %s[%d rounds, last=%d]", k, len(s), s[len(s)-1])
	}
	b.WriteString("\n")
	for _, c := range e.Children {
		renderSpan(b, c, depth+1, e.Dur())
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// fmtTraceDur renders a duration compactly, matching the harness table
// convention.
func fmtTraceDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
