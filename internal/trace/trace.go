// Package trace is the repository's observability layer: a lightweight
// span/counter collector that records the per-phase timings, round counts
// and work counters behind the paper's evaluation (decomposition time vs.
// solve time per component class, Algorithms 4–12; measured rounds next to
// the round-complexity currency of the related distributed/MPC work).
//
// The trace handle is a *Span, passed explicitly: code that records takes
// the span to record into, and sp.Begin(name) opens a child of it. A nil
// *Span means tracing is off. Every Span method is nil-safe and the nil
// paths allocate nothing (guaranteed by a testing.AllocsPerRun test), so
// call sites need no enabled-checks; a caller that turns tracing on hands
// a non-nil span down, one that leaves it off hands down nil.
//
// The model is a tree of spans. Begin opens a span nested under its
// receiver; End stamps its wall time. A span carries
//
//   - Counters — named int64 accumulators (matched edges, conflicts,
//     kernel launches), added via (*Span).Add;
//   - Series — named append-only int64 sequences for per-round
//     observations (MIS frontier sizes, cumulative matched edges), added
//     via (*Span).Append.
//
// Trees live in Collectors: a Collector owns a root span and the mutex
// that serializes every change to its tree, so spans of one tree may be
// begun, ended and counted from any goroutine. Default is the process
// tree that cmd/benchall and cmd/symbreak record into and the /trace
// endpoint serves; the serve layer mints one Collector per request, so
// concurrent requests record disjoint trees.
//
// Snapshot exports a deep copy of a tree as Export values, which marshal
// to the JSON schema documented in DESIGN.md § Observability and render
// as an indented human table via Render. cmd/benchall wires the layer to
// the command line (-trace, -traceout); the serve layer's flight recorder
// exposes per-request trees at /debug/requests.
package trace

import (
	"fmt"
	"time"
)

// Span is one timed phase. Spans are created by Begin on a parent span
// (ultimately a Collector's Root). A nil *Span is valid and inert —
// every method is a no-op — so call sites need no enabled-checks around
// span use.
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	counters map[string]int64
	series   map[string][]int64
	children []*Span
	c        *Collector
	done     bool
}

// Begin opens a child span of s named name, starting now. On a nil s it
// returns nil and allocates nothing.
//
// A span is a write-only handle: the clock reading recorded here flows
// only into the exported tree, never back into the caller's values.
//
//lint:deterministic
func (s *Span) Begin(name string) *Span {
	if s == nil {
		return nil
	}
	return s.beginAt(name, time.Now())
}

// Beginf is Begin with a formatted name; the format runs only on a
// non-nil s, so untraced call sites pay no fmt cost beyond the variadic
// call itself.
//
//lint:deterministic
func (s *Span) Beginf(format string, args ...any) *Span {
	if s == nil {
		return nil
	}
	return s.beginAt(fmt.Sprintf(format, args...), time.Now())
}

// beginAt is Begin with the start time supplied, so a Report's one clock
// reading per phase boundary serves its span too. Safe on nil.
func (s *Span) beginAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := &Span{name: name, start: start, c: c}
	s.children = append(s.children, sp)
	return sp
}

// End stamps the span's wall time. Safe on nil and on already-ended
// spans; ending a parent before its child leaves the child open until
// its own End.
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
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if !s.done {
		s.dur = end.Sub(s.start)
		s.done = true
	}
}

// Add accumulates v into the span's named counter. Safe on nil.
func (s *Span) Add(name string, v int64) {
	if s == nil {
		return
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.counters == nil {
		s.counters = map[string]int64{}
	}
	s.counters[name] += v
}

// Append appends v to the span's named series — the per-round hook
// (frontier sizes, cumulative matched edges). Safe on nil.
func (s *Span) Append(name string, v int64) {
	if s == nil {
		return
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.series == nil {
		s.series = map[string][]int64{}
	}
	s.series[name] = append(s.series[name], v)
}
