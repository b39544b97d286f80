package mis

import (
	"repro/internal/biconn"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// MISBiconn is an extension beyond the paper's three decompositions
// (Hochbaum's biconnected-component approach from the related work): an
// MIS of the subgraph induced by non-articulation vertices — the blocks
// minus their cut vertices, which are mutually non-adjacent across blocks
// — followed by the general solver on the reduced remainder.
func MISBiconn(g *graph.Graph, solver Solver, parent *trace.Span) (*IndepSet, Report) {
	rep := Report{Report: trace.Report{Strategy: "MIS-Biconn", Parent: parent}}
	dsp := rep.Decompose()
	bc := biconn.Blocks(g, dsp)
	rep.Decomposed(dsp)

	n := g.NumVertices()
	member := make([]bool, n)
	par.For(n, func(i int) { member[i] = !bc.IsArticulation[i] })
	set := twoPhases(&rep, g, member, "solve/masked", solver, solver)
	return set, rep
}
