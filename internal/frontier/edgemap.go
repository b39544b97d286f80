package frontier

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultPullDiv is the default direction-switch divisor: EdgeMap goes
// bottom-up while the frontier holds more than n/DefaultPullDiv vertices.
// This is the Beamer heuristic; the default is justified by the
// threshold sweep in EXPERIMENTS.md.
const DefaultPullDiv = 16

// NoPull as an Engine.PullDiv disables bottom-up steps entirely: every
// round pushes. Plain (non-hybrid) BFS runs this way.
const NoPull = -1

// Ops defines one edge-map relaxation, Ligra's F = (update, cond).
type Ops struct {
	// Update relaxes edge (src, dst) with src in the frontier, returning
	// true when dst should join the output subset. It runs concurrently
	// for many edges and must claim shared state atomically (bitset
	// TestAndSet, CAS-min, …). Unless Dedup is set, Update must return
	// true at most once per dst per round (an atomic claim does this
	// naturally); with Dedup the engine deduplicates the output itself.
	Update func(src, dst int32) bool
	// Cond filters destinations: dst is relaxed only while Cond(dst)
	// holds. In bottom-up rounds Cond is re-checked after every
	// successful update so a vertex that no longer qualifies stops
	// scanning its neighbors early. nil means "always true" (no early
	// exit — a bottom-up vertex then aggregates over all its frontier
	// neighbors, which is what CAS-min relaxations like MPX want).
	Cond func(dst int32) bool
	// Dedup makes the engine deduplicate the output subset, required
	// when Update may return true more than once per dst per round
	// (e.g. a CAS-min that improves repeatedly).
	Dedup bool
}

// Engine runs direction-optimizing edge maps. The zero value is ready to
// use with the default threshold; it additionally tracks the
// previous round's direction so direction switches can be counted. An
// Engine is not safe for concurrent use — create one per traversal.
type Engine struct {
	// PullDiv overrides the direction-switch divisor for this engine:
	// bottom-up while frontier size exceeds n/PullDiv. Zero uses
	// DefaultPullDiv; NoPull disables bottom-up.
	PullDiv int
	// Span receives each round's input frontier size as its "frontier"
	// series; nil records nothing.
	Span *trace.Span

	started  bool
	lastPull bool
	// Pushes, Pulls and Switches count this engine's rounds by direction
	// and the transitions between them.
	Pushes, Pulls, Switches int
}

// Frontier size and direction counters, published per EdgeMap round to
// telemetry.Default (one atomic load each while it is off). Direction is
// "push" or "pull".
var (
	emRounds = telemetry.Default.CounterVec(
		"frontier_edgemap_rounds_total",
		"EdgeMap rounds executed, by traversal direction.", "direction")
	emFrontier = telemetry.Default.CounterVec(
		"frontier_edgemap_frontier_vertices_total",
		"Total input frontier sizes over EdgeMap rounds, by direction.", "direction")
	emSwitches = telemetry.Default.Counter(
		"frontier_direction_switches_total",
		"Push/pull direction changes between consecutive EdgeMap rounds of an engine.")
)

// EdgeMap applies ops over the out-edges of f and returns the subset of
// destinations that joined, choosing top-down push or bottom-up pull per
// the Beamer heuristic. The returned subset's membership and vertex order
// are identical under any worker count (see the package comment); which
// src "wins" a contended Update may differ run to run unless the update
// itself is order-free (TestAndSet membership, CAS-min, …).
func (e *Engine) EdgeMap(g *graph.Graph, f *Subset, ops Ops) *Subset {
	n := g.NumVertices()
	size := f.Size()
	pull := e.pullRound(size, n)
	switched := e.started && pull != e.lastPull
	e.started, e.lastPull = true, pull
	dir := "push"
	if pull {
		e.Pulls++
		dir = "pull"
	} else {
		e.Pushes++
	}
	if switched {
		e.Switches++
		emSwitches.Inc()
	}
	emRounds.With(dir).Inc()
	emFrontier.With(dir).Add(float64(size))
	e.Span.Append("frontier", int64(size))
	if pull {
		return edgeMapPull(g, f, ops)
	}
	return edgeMapPush(g, f, ops)
}

// pullRound decides the direction for a frontier of the given size.
func (e *Engine) pullRound(size, n int) bool {
	div := e.PullDiv
	if div == 0 {
		div = DefaultPullDiv
	}
	if div <= 0 {
		return false
	}
	return size > n/div
}

// edgeMapPush relaxes every out-edge of the frontier top-down. Per-chunk
// output buffers are concatenated in chunk order and sorted, so the
// result is in vertex order regardless of worker count or which chunk
// claimed a contended destination.
//
//lint:hotpath
func edgeMapPush(g *graph.Graph, f *Subset, ops Ops) *Subset {
	n := g.NumVertices()
	vs := f.Vertices()
	nf := len(vs)
	var seen *par.Bitset
	if ops.Dedup {
		seen = par.NewBitset(n)
	}
	nc := par.NumChunks(nf)
	bufs := make([][]int32, nc)
	par.RangeIdx(nf, func(c, lo, hi int) {
		var out []int32
		for i := lo; i < hi; i++ {
			u := vs[i]
			for _, v := range g.Neighbors(u) {
				if ops.Cond != nil && !ops.Cond(v) {
					continue
				}
				if ops.Update(u, v) {
					if seen == nil || seen.TestAndSet(int(v)) {
						out = append(out, v)
					}
				}
			}
		}
		bufs[c] = out
	})
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	next := make([]int32, 0, total)
	for _, b := range bufs {
		next = append(next, b...)
	}
	par.SortInt32(next)
	return newSorted(n, next)
}

// edgeMapPull scans every vertex still satisfying Cond for frontier
// neighbors, bottom-up. Each destination is owned by exactly one chunk,
// so updates to it are race-free; output is produced in vertex order by
// construction. With a Cond, a destination stops scanning as soon as a
// successful update makes Cond false (BFS claims its first frontier
// neighbor in sorted adjacency order — deterministic); without one it
// aggregates over all frontier neighbors.
//
//lint:hotpath
func edgeMapPull(g *graph.Graph, f *Subset, ops Ops) *Subset {
	n := g.NumVertices()
	in := f.Bitset()
	nc := par.NumChunks(n)
	bufs := make([][]int32, nc)
	par.RangeIdx(n, func(c, lo, hi int) {
		var out []int32
		for v := lo; v < hi; v++ {
			dst := int32(v)
			if ops.Cond != nil && !ops.Cond(dst) {
				continue
			}
			added := false
			for _, u := range g.Neighbors(dst) {
				if !in.Test(int(u)) {
					continue
				}
				if ops.Update(u, dst) && !added {
					added = true
					out = append(out, dst)
				}
				if ops.Cond != nil && !ops.Cond(dst) {
					break
				}
			}
		}
		bufs[c] = out
	})
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	next := make([]int32, 0, total)
	for _, b := range bufs {
		next = append(next, b...)
	}
	return newSorted(n, next)
}
