// Package mis implements the paper's maximal independent set algorithms
// (Section V): the LubyMIS baseline (Luby 1986) on both the CPU and the bsp
// virtual manycore, the greedy random-priority MIS (Blelloch et al.) as an
// extra baseline, the bounded-degree solver used for the degree ≤ 2
// subgraph (standing in for Kothapalli–Pindiproli's orientation-based
// algorithm [21]; vertex ids induce the orientation, as the paper does),
// and the three decomposition-based algorithms MIS-Bridge, MIS-Rand and
// MIS-Deg2 (Algorithms 10–12).
//
// The decomposition-based algorithms never materialize subgraphs: phases
// run on the original graph through vertex-state masks, matching the
// paper's observation that the DEG2 decomposition "involves a simple
// computation" — its cost is one classification pass, not a graph rebuild.
package mis

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// State is a vertex's position in an MIS computation.
type State int8

const (
	// StateUndecided marks a vertex still in play.
	StateUndecided State = iota
	// StateIn marks a member of the independent set.
	StateIn
	// StateOut marks a vertex excluded from the set — either it has a
	// StateIn neighbor, or the current phase masks it out.
	StateOut
)

// IndepSet is an independent set: In[v] reports membership.
type IndepSet struct {
	In []bool
}

// NewIndepSet returns an empty set over n vertices.
func NewIndepSet(n int) *IndepSet { return &IndepSet{In: make([]bool, n)} }

// Size reports the number of members.
func (s *IndepSet) Size() int64 {
	return par.Count(len(s.In), func(i int) bool { return s.In[i] })
}

// Verify checks that s is an independent set of g and that it is maximal
// (every non-member has a member neighbor).
func Verify(g *graph.Graph, s *IndepSet) error {
	n := g.NumVertices()
	if len(s.In) != n {
		return fmt.Errorf("mis: %d entries for %d vertices", len(s.In), n)
	}
	for v := 0; v < n; v++ {
		if !s.In[v] {
			continue
		}
		for _, w := range g.Neighbors(int32(v)) {
			if s.In[w] {
				return fmt.Errorf("mis: adjacent members %d and %d", v, w)
			}
		}
	}
	for v := 0; v < n; v++ {
		if s.In[v] {
			continue
		}
		covered := false
		for _, w := range g.Neighbors(int32(v)) {
			if s.In[w] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("mis: not maximal, vertex %d has no member neighbor", v)
		}
	}
	return nil
}

// Stats reports work counters for an MIS run.
type Stats struct {
	// Rounds is the number of selection rounds executed.
	Rounds int
}

// Solver is a masked MIS subroutine: it decides every vertex of active
// (whose status entries must be StateUndecided on entry), adding members to
// set and updating status to StateIn/StateOut, and appends its per-round
// frontier series to the phase span sp (nil: untraced). Vertices whose
// status is not StateUndecided are invisible — the run behaves as if the
// graph were induced on the undecided vertices. The decomposition-based
// algorithms hand their phases to a Solver exactly as the paper plugs
// LubyMIS in as the inner algorithm.
type Solver func(g *graph.Graph, status []State, set *IndepSet, active []int32, sp *trace.Span) Stats

// Fresh applies a solver to the whole graph, recording the run on sp.
func Fresh(g *graph.Graph, solver Solver, sp *trace.Span) (*IndepSet, Stats) {
	n := g.NumVertices()
	set := NewIndepSet(n)
	status := make([]State, n)
	active := make([]int32, n)
	par.Iota(active)
	st := solver(g, status, set, active, sp)
	return set, st
}

// Report describes a full decomposition-based run: the shared run report
// (its Decomp covers classification, labeling, or bridge finding — no
// subgraphs are materialized) plus the order heuristic's verdict.
type Report struct {
	trace.Report
	// SparserFirst records whether the order heuristic ran the
	// decomposed subgraph before the remainder (MIS-Bridge / MIS-Rand).
	SparserFirst bool
}
