package matching

import (
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// mergeSub transfers a matching computed on a subgraph into the global mate
// array through the subgraph's local→global map.
func mergeSub(global []int32, sub *graph.Sub, local *Matching) {
	par.For(len(local.Mate), func(j int) {
		w := local.Mate[j]
		if w != Unmatched {
			global[sub.ToGlobal[j]] = sub.ToGlobal[w]
		}
	})
}

// solveOnUnmatched induces sub on its vertices still unmatched in global,
// runs mm there under the phase span sp, and merges the result back.
// Returns the inner run's stats. This realizes the recurring pseudocode
// step "V' ← unmatched vertices in G_x using M; M' ← MM(G_x[V'])".
func solveOnUnmatched(global []int32, sub *graph.Sub, mm Algorithm, sp *trace.Span) Stats {
	member := make([]bool, sub.NumVertices())
	par.For(len(member), func(j int) {
		member[j] = global[sub.ToGlobal[j]] == Unmatched
	})
	restricted := graph.InducedSubgraph(sub.G, member)
	// Compose the two mapping levels so merge lands on global ids.
	composed := &graph.Sub{G: restricted.G, ToGlobal: make([]int32, restricted.NumVertices())}
	par.For(restricted.NumVertices(), func(j int) {
		composed.ToGlobal[j] = sub.ToGlobal[restricted.ToGlobal[j]]
	})
	local, st := mm(composed.G, sp)
	mergeSub(global, composed, local)
	return st
}

// twoPhase is the body MM-Bridge, MM-Rand, MM-Degk and MM-MPX share. The
// timed decomposition runs split under the decomp span, which returns keep,
// the predicate of the first phase's edges, and the part count for the
// decomp span; one graph.SplitEdges call builds both phases' graphs. The
// first phase matches the graph of kept edges, which keeps global vertex
// ids; the second matches the edge-induced subgraph of the other (cross)
// edges, restricted to the vertices still unmatched. first and second name
// the two phase spans, opened under parent.
func twoPhase(g *graph.Graph, strategy, first, second string, mm Algorithm, parent *trace.Span,
	split func(dsp *trace.Span) (keep func(u, v int32) bool, parts int)) (*Matching, Report) {
	rep := Report{Strategy: strategy, Parent: parent}
	dsp := rep.Decompose()
	keep, parts := split(dsp)
	g1, cross := graph.SplitEdges(g, keep)
	dsp.Add("parts", int64(parts))
	dsp.Add("cross_edges", int64(cross.G.NumEdges()))
	rep.Decomposed(dsp)

	m := NewMatching(g.NumVertices())
	sp := rep.Phase(first)
	m1, st := mm(g1, sp)
	par.Copy(m.Mate, m1.Mate)
	sp.Add("matched", st.Matched)
	rep.EndPhase(sp, st.Rounds)
	sp = rep.Phase(second)
	st = solveOnUnmatched(m.Mate, cross, mm, sp)
	sp.Add("matched", st.Matched)
	rep.EndPhase(sp, st.Rounds)
	return m, rep
}

// MMBridge is the paper's Algorithm 4: decompose by bridges, match the
// 2-edge-connected components G_c (G minus the bridges, whose components
// the parallel subroutine solves simultaneously), then augment with a
// matching on the subgraph of the bridges induced by still-unmatched
// bridge vertices.
func MMBridge(g *graph.Graph, mm Algorithm, parent *trace.Span) (*Matching, Report) {
	return twoPhase(g, "MM-Bridge", "solve/parts", "solve/cross", mm, parent,
		func(dsp *trace.Span) (func(u, v int32) bool, int) {
			bi := decomp.FindBridges(g, dsp)
			return func(u, v int32) bool { return !bi.IsBridge(u, v) }, 1
		})
}

// MMRand is the paper's Algorithm 5: random k-way decomposition, one
// matching call on G_IS = ∪ᵢ G[Vᵢ] (Algorithm 5 line 2 takes the union of
// the induced subgraphs, whose components the parallel subroutine processes
// simultaneously), then the cross-edge graph G_{k+1} restricted to
// unmatched vertices. The paper uses k = 10 on the CPU and k = 4 on the
// GPU, raising k toward the average degree on very dense instances.
func MMRand(g *graph.Graph, k int, seed uint64, mm Algorithm, parent *trace.Span) (*Matching, Report) {
	return twoPhase(g, "MM-Rand", "solve/parts", "solve/cross", mm, parent,
		func(*trace.Span) (func(u, v int32) bool, int) {
			label := decomp.RandLabels(g.NumVertices(), k, seed)
			return func(u, v int32) bool { return label[u] == label[v] }, k
		})
}

// MMMPX is the MPX analogue of Algorithm 5 (an extension beyond the
// paper): grow exponential-shift balls, match the union of the balls
// G_IS = ∪ᵢ G[Bᵢ], then the inter-ball graph restricted to still-unmatched
// vertices. Where RAND fixes the part count k, MPX fixes the rate beta and
// the ball count falls out of the shifts.
func MMMPX(g *graph.Graph, beta float64, seed uint64, mm Algorithm, parent *trace.Span) (*Matching, Report) {
	return twoPhase(g, "MM-MPX", "solve/parts", "solve/cross", mm, parent,
		func(dsp *trace.Span) (func(u, v int32) bool, int) {
			info := decomp.MPXGrow(g, beta, seed, dsp)
			center := info.Center
			return func(u, v int32) bool { return center[u] == center[v] }, info.Balls
		})
}

// MMDegk is the paper's Algorithm 6: degree-k decomposition (k = 2 in the
// paper), match the high-degree subgraph G_H first, then G_L ∪ G_C (every
// edge with at least one low-degree endpoint) restricted to unmatched
// vertices.
func MMDegk(g *graph.Graph, k int, mm Algorithm, parent *trace.Span) (*Matching, Report) {
	return twoPhase(g, "MM-Degk", "solve/G_H", "solve/G_LC", mm, parent,
		func(*trace.Span) (func(u, v int32) bool, int) {
			label := decomp.DegkLabels(g, k)
			return func(u, v int32) bool {
				return label[u] == decomp.DegkHigh && label[v] == decomp.DegkHigh
			}, 2
		})
}
