package matching

import (
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// solveSub matches sub with mm under the phase span sp and writes the
// pairs into the global mate array through the subgraph's local→global
// map. Returns the run's stats.
func solveSub(global []int32, sub *graph.Sub, mm Algorithm, sp *trace.Span) Stats {
	local, st := mm(sub.G, sp)
	par.For(len(local.Mate), func(j int) {
		if w := local.Mate[j]; w != Unmatched {
			global[sub.ToGlobal[j]] = sub.ToGlobal[w]
		}
	})
	return st
}

// twoPhase is the body MM-Bridge, MM-Rand, MM-Degk and MM-MPX share. The
// timed decomposition runs split under the decomp span, which returns keep,
// the predicate of the first phase's edges, and the part count for the
// decomp span. The first phase matches graph.KeepEdges(g, keep), which
// keeps global vertex ids, so its matching is the result. The second
// phase is the pseudocode's "V′ ← unmatched vertices in G_x; M′ ←
// MM(G_x[V′])", with G_x the other (cross) edges: it builds G_x[V′] once,
// from g — the still-unmatched endpoints of cross edges in id order,
// isolated ones kept, with the cross edges between them — and merges its
// matching in. first and second name the two phase spans, opened under
// parent.
func twoPhase(g *graph.Graph, strategy, first, second string, mm Algorithm, parent *trace.Span,
	split func(dsp *trace.Span) (keep func(u, v int32) bool, parts int)) (*Matching, Report) {
	rep := Report{Strategy: strategy, Parent: parent}
	dsp := rep.Decompose()
	keep, parts := split(dsp)
	g1 := graph.KeepEdges(g, keep)
	dsp.Add("parts", int64(parts))
	dsp.Add("cross_edges", g.NumEdges()-g1.NumEdges())
	rep.Decomposed(dsp)

	sp := rep.Phase(first)
	m, st := mm(g1, sp)
	sp.Add("matched", st.Matched)
	rep.EndPhase(sp, st.Rounds)
	sp = rep.Phase(second)
	mate := m.Mate
	cross := graph.Subgraph(g,
		func(v int32) bool { return mate[v] == Unmatched && g.Degree(v) != g1.Degree(v) },
		func(v, w int32) bool { return mate[w] == Unmatched && !keep(v, w) })
	st = solveSub(mate, cross, mm, sp)
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
