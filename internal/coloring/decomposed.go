package coloring

import (
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// ColorBridge is the paper's Algorithm 7: color the 2-edge-connected
// components G_c independently (they share a palette and cannot conflict
// with each other), then detect conflicts across the bridges and recolor
// the conflicted vertices against G_c ∪ G_b = G.
func ColorBridge(g *graph.Graph, eng Engine, parent *trace.Span) (*Coloring, Report) {
	rep := Report{Report: trace.Report{Strategy: "COLOR-Bridge", Parent: parent}}
	dsp := rep.Decompose()
	bi := decomp.FindBridges(g, dsp)
	// The repair walks bi.Bridges in list order, so no cross graph is built.
	gc := graph.KeepEdges(g, func(u, v int32) bool { return !bi.IsBridge(u, v) })
	rep.Decomposed(dsp)

	// C_c ← COLOR(G_c): G_c = G − B keeps global ids, its components
	// color in parallel inside the engine.
	sp := rep.Phase("solve/G_c")
	c, st := Fresh(gc, eng, sp)
	rep.EndPhase(sp, st.Rounds)
	// Only bridge edges can be monochromatic. Reset the lower-priority
	// endpoint (see loses) of each conflicting bridge.
	sp = rep.Phase("solve/repair")
	work := resetConflicts(c.Color, bi.Bridges)
	rep.Conflicted = int64(len(work))
	st = eng.Repair(g, c.Color, work, sp)
	sp.Add("conflicts", rep.Conflicted)
	rep.EndPhase(sp, st.Rounds)
	return c, rep
}

// ColorRand is the paper's Algorithm 8: color the k random induced
// subgraphs with an identical palette, collect the endpoints of
// monochromatic cross edges, and recolor them along with G_{k+1} — i.e.
// against the full graph. Each part is colored on its own relabelled
// subgraph: the local ids feed the engine's hashed tie-break.
func ColorRand(g *graph.Graph, k int, seed uint64, eng Engine, parent *trace.Span) (*Coloring, Report) {
	rep := Report{Report: trace.Report{Strategy: "COLOR-Rand", Parent: parent}}
	dsp := rep.Decompose()
	d := decomp.Rand(g, k, seed)
	d.Trace(dsp)
	rep.Decomposed(dsp)

	c := NewColoring(g.NumVertices())
	sp := rep.Phase("solve/parts")
	rounds := 0
	for _, part := range d.Parts {
		local, st := Fresh(part.G, eng, sp)
		rounds += st.Rounds
		mergeColors(c.Color, part, local)
	}
	rep.EndPhase(sp, rounds)
	// Conflicts can only sit on cross edges.
	sp = rep.Phase("solve/repair")
	work := resetConflictsSub(c.Color, d.Cross)
	rep.Conflicted = int64(len(work))
	st := eng.Repair(g, c.Color, work, sp)
	sp.Add("conflicts", rep.Conflicted)
	rep.EndPhase(sp, st.Rounds)
	return c, rep
}

// ColorMPX is the MPX analogue of Algorithm 7 (an extension beyond the
// paper): grow exponential-shift balls, color their union with a shared
// palette (different balls can only conflict across inter-ball edges),
// then repair the monochromatic inter-ball endpoints against the full
// graph.
func ColorMPX(g *graph.Graph, beta float64, seed uint64, eng Engine, parent *trace.Span) (*Coloring, Report) {
	rep := Report{Report: trace.Report{Strategy: "COLOR-MPX", Parent: parent}}
	dsp := rep.Decompose()
	center := decomp.MPXGrow(g, beta, seed, dsp).Center
	balls, cross := graph.SplitEdges(g, func(u, v int32) bool { return center[u] == center[v] })
	rep.Decomposed(dsp)

	sp := rep.Phase("solve/balls")
	c, st := Fresh(balls, eng, sp)
	rep.EndPhase(sp, st.Rounds)
	// Conflicts can only sit on inter-ball edges.
	sp = rep.Phase("solve/repair")
	work := resetConflictsSub(c.Color, cross)
	rep.Conflicted = int64(len(work))
	st = eng.Repair(g, c.Color, work, sp)
	sp.Add("conflicts", rep.Conflicted)
	rep.EndPhase(sp, st.Rounds)
	return c, rep
}

// ColorDegk is the paper's Algorithm 9 (k = 2 in the paper): color the
// high-degree subgraph G_H first; the cross edges G_C cannot conflict
// because only their G_H endpoint is colored. Then color G_L from a fresh
// palette starting above max(C_H) — vertices in G_L have degree at most k,
// so each takes one of the k+1 colors above max(C_H) and no recoloring
// against G is ever needed.
//
// The decomposition is a single degree classification ("a simple
// computation", per the paper's Figure 2 discussion): no subgraph is
// materialized. The G_H phase runs the engine's Repair with the high
// vertices as the worklist — uncolored low neighbors impose no constraints,
// so it colors exactly G_H. The G_L phase's disjoint palette likewise
// never collides with G_H colors.
func ColorDegk(g *graph.Graph, k int, eng Engine, parent *trace.Span) (*Coloring, Report) {
	rep := Report{Report: trace.Report{Strategy: "COLOR-Degk", Parent: parent}}
	n := g.NumVertices()

	dsp := rep.Decompose()
	label := decomp.DegkLabels(g, k)
	rep.Decomposed(dsp)

	c := NewColoring(n)
	high := par.Gather(n, func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if label[i] != decomp.DegkLow {
				out = append(out, int32(i))
			}
		}
		return out
	})
	lowList := par.Gather(n, func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if label[i] == decomp.DegkLow {
				out = append(out, int32(i))
			}
		}
		return out
	})
	sp := rep.Phase("solve/G_H")
	var hi Stats
	if len(high) > 0 {
		hi = eng.Repair(g, c.Color, high, sp)
	}
	rep.EndPhase(sp, hi.Rounds)
	base := c.NumColors() // palette for G_L starts above max(C_H)
	sp = rep.Phase("solve/G_L")
	var lo Stats
	if len(lowList) > 0 {
		lo = speculate(g, c.Color, lowList, base, eng.Exec(sp), sp)
	}
	rep.EndPhase(sp, lo.Rounds)
	return c, rep
}

// mergeColors transfers a subgraph coloring into the global array.
func mergeColors(global []int32, sub *graph.Sub, local *Coloring) {
	par.For(len(local.Color), func(j int) {
		global[sub.ToGlobal[j]] = local.Color[j]
	})
}

// resetConflicts uncolors the lower-priority endpoint (see loses) of every
// monochromatic edge in the list and returns the (deduplicated) worklist of
// reset vertices.
func resetConflicts(color []int32, edges []graph.Edge) []int32 {
	var work []int32
	for _, e := range edges {
		if color[e.U] == color[e.V] && color[e.U] != Uncolored {
			lo := e.U
			if loses(e.V, e.U) {
				lo = e.V
			}
			if color[lo] != Uncolored {
				color[lo] = Uncolored
				work = append(work, lo)
			}
		}
	}
	return work
}

// resetConflictsSub does the same over all edges of a cross subgraph,
// working in global ids through the Sub's mapping.
func resetConflictsSub(color []int32, cross *graph.Sub) []int32 {
	n := cross.NumVertices()
	reset := make([]bool, n)
	par.For(n, func(j int) {
		v := cross.ToGlobal[j]
		cv := color[v]
		for _, lw := range cross.G.Neighbors(int32(j)) {
			w := cross.ToGlobal[lw]
			if color[w] == cv && loses(v, w) {
				reset[j] = true
				break
			}
		}
	})
	var work []int32
	for j := 0; j < n; j++ {
		if reset[j] {
			v := cross.ToGlobal[j]
			color[v] = Uncolored
			work = append(work, v)
		}
	}
	return work
}
