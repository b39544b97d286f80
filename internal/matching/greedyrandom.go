package matching

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// GreedyRandom is the unmodified algorithm of Blelloch et al. [6]: random
// priorities on the edges induce a DAG, and each round the roots — edges
// with no higher-priority neighboring edge — enter the matching, with the
// dependence depth O(log² n) w.h.p. The paper's GM baseline replaces the
// random priorities with lowest-vertex-id mate selection ("we use the
// vertex numbers to help in the selection of potential mates"), which is
// what creates the vain tendency; GreedyRandom is the reference point
// without that modification.
//
// A vertex-centric implementation on GM's round driver (handshake): each
// free vertex points at its minimum-(priority, id) incident live edge; an
// edge is a root when both endpoints point at it. Live edges only
// disappear, so a vertex's pick changes only when its target is matched.
// The priority is symmetric in the endpoints, so the globally minimum live
// edge is a root in every round.
func GreedyRandom(g *graph.Graph, seed uint64) (*Matching, Stats) {
	return handshake(g, func(v int32, mate []int32) int32 {
		best := Unmatched
		var bestP uint64
		for _, w := range g.Neighbors(v) {
			if mate[w] != Unmatched {
				continue
			}
			p := par.Hash2(seed, int64(v), int64(w))
			if best == Unmatched || p < bestP || (p == bestP && w < best) {
				best, bestP = w, p
			}
		}
		return best
	}, nil)
}
