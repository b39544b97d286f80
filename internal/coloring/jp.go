package coloring

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// JP implements the Jones–Plassmann independent-set coloring heuristic that
// the paper's §IV-A surveys, with the vertex orderings studied by
// Hasenplaugh et al.: every vertex waits until all higher-priority
// neighbors are colored, then takes its smallest available color. Unlike
// the speculative VB/EB engines it never produces conflicts, at the price
// of as many rounds as the priority DAG is deep.
//
// JP is not one of the paper's measured baselines; it exists for the
// coloring-baselines comparison experiment.
type JP struct {
	// Ordering selects the priority function.
	Ordering Ordering
	// Seed drives the random components of the orderings.
	Seed uint64
}

// Ordering is a Jones–Plassmann priority rule.
type Ordering int

const (
	// OrderRandom is the classic JP ordering: uniform random priorities.
	OrderRandom Ordering = iota
	// OrderLargestFirst is Hasenplaugh's LF: higher degree colors first
	// (ties broken randomly).
	OrderLargestFirst
	// OrderSmallestLast is the SL ordering approximated one-shot: lower
	// degeneracy rank colors later. We use the reverse-degree heuristic
	// (smaller degree → higher rank → colors later), the cheap proxy
	// Hasenplaugh et al. compare against true SL.
	OrderSmallestLast
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderLargestFirst:
		return "LF"
	case OrderSmallestLast:
		return "SL"
	default:
		return "R"
	}
}

// NewJP returns a JP engine with the given ordering.
func NewJP(o Ordering, seed uint64) *JP { return &JP{Ordering: o, Seed: seed} }

// Name implements Engine.
func (jp *JP) Name() string { return "JP-" + jp.Ordering.String() }

// Exec implements Engine.
func (jp *JP) Exec(n int, body func(lo, hi int)) { par.Range(n, body) }

// priority returns the JP priority of v: higher colors earlier.
func (jp *JP) priority(g *graph.Graph, v int32) uint64 {
	r := par.Hash64(jp.Seed, int64(v))
	switch jp.Ordering {
	case OrderLargestFirst:
		return uint64(g.Degree(v))<<40 | r>>24
	case OrderSmallestLast:
		return uint64(1<<24-int64(g.Degree(v)))<<40 | r>>24
	default:
		return r
	}
}

// Fresh implements Engine.
func (jp *JP) Fresh(g *graph.Graph) (*Coloring, Stats) { return fresh(g, jp.Repair) }

// Repair implements Engine: colors the work vertices in priority-DAG
// order. Colored non-work vertices constrain color choices as usual.
func (jp *JP) Repair(g *graph.Graph, color []int32, work []int32) Stats {
	var st Stats
	inWork := make([]bool, g.NumVertices())
	par.Range(len(work), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inWork[work[i]] = true
		}
	})
	pending := work
	ready := make([]bool, g.NumVertices())
	for len(pending) > 0 {
		st.Rounds++
		// Phase A: a vertex is ready when no uncolored work neighbor
		// outranks it. Two adjacent pending vertices never both become
		// ready (priorities totally order them), so phase B's writes are
		// conflict free.
		par.Range(len(pending), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := pending[i]
				pv := jp.priority(g, v)
				ok := true
				for _, w := range g.Neighbors(v) {
					if !inWork[w] || color[w] != Uncolored {
						continue
					}
					pw := jp.priority(g, w)
					if pw > pv || (pw == pv && w > v) {
						ok = false
						break
					}
				}
				ready[v] = ok
			}
		})
		// Phase B: ready vertices take the smallest color absent from
		// their (necessarily non-ready or already colored) neighborhood.
		par.Range(len(pending), func(lo, hi int) {
			forbidden := make(map[int32]bool)
			for i := lo; i < hi; i++ {
				v := pending[i]
				if !ready[v] {
					continue
				}
				clear(forbidden)
				for _, w := range g.Neighbors(v) {
					if cw := color[w]; cw != Uncolored {
						forbidden[cw] = true
					}
				}
				pick := int32(0)
				for forbidden[pick] {
					pick++
				}
				color[v] = pick
			}
		})
		pending = par.Filter(pending, func(v int32) bool { return color[v] == Uncolored })
	}
	return st
}
