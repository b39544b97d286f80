// Package trace is the repository's observability layer: a lightweight
// span/counter collector that records the per-phase timings, round counts
// and work counters behind the paper's evaluation (decomposition time vs.
// solve time per component class, Algorithms 4–12; measured rounds next to
// the round-complexity currency of the related distributed/MPC work).
//
// Collection is opt-in and zero-cost when disabled: Begin returns a nil
// *Span after one atomic load, every Span method is nil-safe, and none of
// the disabled paths allocate (guaranteed by a testing.AllocsPerRun test).
// Call sites that would compute arguments (formatted names, derived
// counters) guard on Enabled first, or use Beginf which formats only when
// collection is on.
//
// The model is a tree of spans. Begin opens a span nested under the
// innermost open span of the current collector; End closes it and
// records its wall time. A span carries
//
//   - Counters — named int64 accumulators (matched edges, conflicts,
//     kernel launches), added via (*Span).Add or trace.Add (which targets
//     the innermost open span, letting leaf code such as the bsp machine
//     attribute work to whatever phase is running);
//   - Series — named append-only int64 sequences for per-round
//     observations (MIS frontier sizes, cumulative matched edges).
//
// Trees live in Collectors. The package-level functions record into a
// process-global Collector — experiment harnesses run cells sequentially,
// so the implicit current-span stack matches the phase structure exactly.
// Concurrent request-serving paths instead mint one Collector per request
// and Attach it to the request goroutine (or thread it via NewContext /
// core.SolveCtx), so simultaneous requests record independent span trees
// instead of interleaving on the global one. Concurrent Begin/End against
// a single collector is still safe (the tree is lock-protected and End
// tolerates out-of-order closes) but its nesting reflects submission
// order, not causality.
//
// Snapshot exports a deep copy of a tree as Export values, which marshal
// to the JSON schema documented in DESIGN.md § Observability and render
// as an indented human table via Render. cmd/benchall wires the layer to
// the command line (-trace, -traceout); the serve layer's flight recorder
// exposes per-request trees at /debug/requests.
package trace

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Span is one timed phase. The zero value is not used; Begin creates
// spans. A nil *Span is valid and inert — every method is a no-op — so
// call sites need no enabled-checks around span use.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	counters map[string]int64
	series   map[string][]int64
	children []*Span
	parent   *Span
	c        *Collector
	done     bool
}

// The process-global collector, and the enabled gate shared by every
// collector: one atomic load guards every entry point.
var (
	enabled atomic.Bool
	global  = NewCollector()
)

// Enable switches collection on or off. Off (the default) makes every
// trace call a no-op after one atomic load.
func Enable(on bool) { enabled.Store(on) }

// Enabled reports whether collection is on.
func Enabled() bool { return enabled.Load() }

// Reset discards every span and counter recorded on the global
// collector. Per-request collectors are unaffected.
func Reset() { global.Reset() }

// Begin opens a span nested under the innermost open span of the current
// collector — the goroutine's attached collector if one exists, else the
// global one — and makes it current. Returns nil (inert) when collection
// is off.
func Begin(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	return current().begin(name, time.Now())
}

// beginAt is Begin with the start time supplied, so a Report's one clock
// reading per phase boundary serves its span too.
func beginAt(name string, start time.Time) *Span {
	if !enabled.Load() {
		return nil
	}
	return current().begin(name, start)
}

// Beginf is Begin with a formatted name; the format runs only when
// collection is on, so disabled call sites pay no fmt cost beyond the
// variadic call itself. Enabled-ness is checked exactly once — Beginf
// does not route through Begin's own load.
func Beginf(format string, args ...any) *Span {
	if !enabled.Load() {
		return nil
	}
	return current().begin(fmt.Sprintf(format, args...), time.Now())
}

// End closes the span, recording its wall time. The owning collector's
// current span pops to the nearest still-open ancestor, so out-of-order
// closes (concurrent spans) cannot wedge the tracer. Safe on nil and on
// already-ended spans.
func (s *Span) End() {
	if s != nil {
		s.endAt(time.Now())
	}
}

// endAt is End at a supplied time. Safe on nil.
func (s *Span) endAt(end time.Time) {
	if s == nil {
		return
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !s.done {
		s.dur = end.Sub(s.start)
		s.done = true
	}
	for c.cur != c.root && c.cur.done {
		c.cur = c.cur.parent
	}
}

// Add accumulates v into the span's named counter. Safe on nil.
func (s *Span) Add(name string, v int64) {
	if s == nil {
		return
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[name] += v
}

// Append appends v to the span's named series. Safe on nil.
func (s *Span) Append(name string, v int64) {
	if s == nil {
		return
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.series == nil {
		s.series = map[string][]int64{}
	}
	s.series[name] = append(s.series[name], v)
}

// Add accumulates v into the named counter of the current collector's
// innermost open span. Counters recorded while no span is open land on
// the root and surface in Snapshot's root Export. No-op when collection
// is off.
func Add(name string, v int64) {
	if !enabled.Load() {
		return
	}
	current().add(name, v)
}

// Append appends v to the named series of the current collector's
// innermost open span — the per-round hook (frontier sizes, cumulative
// matched edges). No-op when collection is off.
func Append(name string, v int64) {
	if !enabled.Load() {
		return
	}
	current().appendSeries(name, v)
}
