package matching

import (
	"repro/internal/biconn"
	"repro/internal/graph"
	"repro/internal/trace"
)

// MMBiconn is an extension beyond the paper's three decompositions: the
// biconnected-component decomposition the paper's related work traces to
// Hochbaum. Non-articulation vertices of different blocks are never
// adjacent, so the first phase matches the subgraph induced by them (all
// blocks minus their cut vertices, simultaneously); the second phase
// extends the matching across the articulation points.
func MMBiconn(g *graph.Graph, mm Algorithm, parent *trace.Span) (*Matching, Report) {
	rep := Report{Strategy: "MM-Biconn", Parent: parent}
	dsp := rep.Decompose()
	bc := biconn.Blocks(g, dsp)
	rep.Decomposed(dsp)

	m := NewMatching(g.NumVertices())
	mate, art := m.Mate, bc.IsArticulation
	sp := rep.Phase("solve/parts")
	st := solveSub(mate, graph.Subgraph(g,
		func(v int32) bool { return !art[v] },
		func(_, w int32) bool { return !art[w] }), mm, sp)
	sp.Add("matched", st.Matched)
	rep.EndPhase(sp, st.Rounds)
	// Extend across the cut vertices (the whole residual graph, as in the
	// other algorithms' final phases).
	sp = rep.Phase("solve/cross")
	st = solveSub(mate, graph.Subgraph(g,
		func(v int32) bool { return mate[v] == Unmatched },
		func(_, w int32) bool { return mate[w] == Unmatched }), mm, sp)
	sp.Add("matched", st.Matched)
	rep.EndPhase(sp, st.Rounds)
	return m, rep
}
