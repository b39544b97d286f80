package matching

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// GM computes a maximal matching with the paper's multicore CPU baseline:
// every unmatched vertex proposes to its lowest-id unmatched neighbor (the
// "potential mate"); mutual proposals become matched edges; the round
// repeats on the surviving vertices. This is the implementation the paper
// describes for Algorithm GM and it deliberately exhibits the paper's
// "vain tendency": a long chain of proposals yields only one matched edge
// per round, so instances like rgg need thousands of rounds.
//
// Each vertex keeps a cursor into its sorted adjacency list that only moves
// forward (matched-ness is monotone), so the total scan work is O(m) plus
// O(active) per round.
func GM(g *graph.Graph) (*Matching, Stats) { return gm(g, nil) }

// gm is GM appending its per-round matched and frontier series to sp.
func gm(g *graph.Graph, sp *trace.Span) (*Matching, Stats) {
	n := g.NumVertices()
	m := NewMatching(n)
	var st Stats

	cur := make([]int32, n)  // per-vertex adjacency cursor
	prop := make([]int32, n) // this round's proposal target
	mate := m.Mate

	active := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if g.Degree(int32(v)) > 0 {
			active = append(active, int32(v))
		}
	}

	var matched atomic.Int64
	for len(active) > 0 {
		st.Rounds++
		// Proposal phase: cursor past matched neighbors, propose to the
		// first unmatched one.
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				ns := g.Neighbors(v)
				c := cur[v]
				for int(c) < len(ns) && mate[ns[c]] != Unmatched {
					c++
				}
				cur[v] = c
				if int(c) < len(ns) {
					prop[v] = ns[c]
				} else {
					prop[v] = Unmatched // no unmatched neighbor left: retire
				}
			}
		})
		// Handshake phase: mutual proposals match. Distinct pairs never
		// share a vertex (prop is a function), so the writes are disjoint.
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				w := prop[v]
				if w != Unmatched && v < w && prop[w] == v {
					mate[v] = w
					mate[w] = v
					matched.Add(1)
				}
			}
		})
		before := len(active)
		active = par.Filter(active, func(v int32) bool {
			return mate[v] == Unmatched && prop[v] != Unmatched
		})
		// With sorted lists the lowest-id active vertex and its pick always
		// handshake, so every round drops someone; a round that drops no
		// one would repeat forever.
		if len(active) == before {
			panic(errStalled)
		}
		st.PerRound = append(st.PerRound, matched.Load())
		sp.Append("matched", matched.Load())
		sp.Append("frontier", int64(len(active)))
	}
	st.Matched = matched.Load()
	return m, st
}

// GMSolver returns GM as an Algorithm value.
func GMSolver() Algorithm { return gm }
