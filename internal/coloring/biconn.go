package coloring

import (
	"repro/internal/biconn"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// ColorBiconn is an extension beyond the paper's three decompositions,
// following Hochbaum's biconnected-component approach from the paper's
// related work: blocks share only articulation points, so coloring the
// non-articulation vertices first is exactly "color every block
// independently with an identical palette" (non-cut vertices of different
// blocks are never adjacent), and only the articulation points need a
// second pass against the whole graph.
func ColorBiconn(g *graph.Graph, eng Engine, parent *trace.Span) (*Coloring, Report) {
	rep := Report{Report: trace.Report{Strategy: "COLOR-Biconn", Parent: parent}}
	dsp := rep.Decompose()
	bc := biconn.Blocks(g, dsp)
	rep.Decomposed(dsp)

	n := g.NumVertices()
	c := NewColoring(n)
	interior := par.Gather(n, func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if !bc.IsArticulation[i] {
				out = append(out, int32(i))
			}
		}
		return out
	})
	cut := par.Gather(n, func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if bc.IsArticulation[i] {
				out = append(out, int32(i))
			}
		}
		return out
	})
	sp := rep.Phase("solve/parts")
	var in Stats
	if len(interior) > 0 {
		in = eng.Repair(g, c.Color, interior, sp)
	}
	rep.EndPhase(sp, in.Rounds)
	sp = rep.Phase("solve/repair")
	rep.Conflicted = int64(len(cut))
	var out Stats
	if len(cut) > 0 {
		out = eng.Repair(g, c.Color, cut, sp)
	}
	sp.Add("conflicts", rep.Conflicted)
	rep.EndPhase(sp, out.Rounds)
	return c, rep
}
