package mis

import (
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// Order controls which side a two-phase decomposition algorithm solves
// first. The paper's heuristic (OrderAuto) picks the sparser side; the
// forced orders exist for the ablation experiments.
type Order int

const (
	// OrderAuto applies the paper's average-degree heuristic.
	OrderAuto Order = iota
	// OrderPartsFirst always solves the decomposed parts side first.
	OrderPartsFirst
	// OrderCrossFirst always solves the bridge/cross side first.
	OrderCrossFirst
)

// pickFirst resolves an Order against the heuristic's verdict.
func pickFirst(ord Order, partsSparser bool) bool {
	switch ord {
	case OrderPartsFirst:
		return true
	case OrderCrossFirst:
		return false
	default:
		return partsSparser
	}
}

// avgDeg is the order heuristic's sparsity measure.
func avgDeg(edges int64, verts int64) float64 {
	if verts == 0 {
		return 0
	}
	return 2 * float64(edges) / float64(verts)
}

// maskedPhase runs solver on the subgraph of g induced by the member
// vertices, through the status mask: members start undecided, everyone
// else is temporarily out. The solver sees exactly the induced subgraph
// and records on the phase span sp.
func maskedPhase(g *graph.Graph, set *IndepSet, member func(i int) bool, solver Solver, sp *trace.Span) Stats {
	n := g.NumVertices()
	status := make([]State, n)
	active := par.Gather(n, func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if member(i) {
				out = append(out, int32(i))
			} else {
				status[i] = StateOut
			}
		}
		return out
	})
	return solver(g, status, set, active, sp)
}

// remainderPhase reduces G by the current set (the pseudocode's "remove
// vertices that are in I or have a neighbor in I"), then runs solver on
// what remains under the phase span sp. Works purely on a fresh status
// mask.
func remainderPhase(g *graph.Graph, set *IndepSet, solver Solver, sp *trace.Span) Stats {
	n := g.NumVertices()
	status := make([]State, n)
	active := par.Gather(n, func(lo, hi int, out []int32) []int32 {
	vertices:
		for i := lo; i < hi; i++ {
			if set.In[i] {
				status[i] = StateIn
				continue
			}
			for _, w := range g.Neighbors(int32(i)) {
				if set.In[w] {
					status[i] = StateOut
					continue vertices
				}
			}
			out = append(out, int32(i))
		}
		return out
	})
	return solver(g, status, set, active, sp)
}

// twoPhases runs the phases every decomposed MIS shares: first on the
// subgraph induced by member, in the span named name, then rest on the
// reduced remainder.
func twoPhases(rep *Report, g *graph.Graph, member func(i int) bool, name string, first, rest Solver) *IndepSet {
	set := NewIndepSet(g.NumVertices())
	sp := rep.Phase(name)
	rep.EndPhase(sp, maskedPhase(g, set, member, first, sp).Rounds)
	sp = rep.Phase("solve/remainder")
	rep.EndPhase(sp, remainderPhase(g, set, rest, sp).Rounds)
	return set
}

// MISBridge is the paper's Algorithm 10: find the bridges, compute an MIS
// on ∪ᵢ Hᵢ (the 2-edge-connected components minus bridge endpoints) and on
// the reduced remainder. The order heuristic from §V-B1 computes the
// sparser of ∪ᵢ Hᵢ and the bridge graph G_B first.
func MISBridge(g *graph.Graph, solver Solver, parent *trace.Span) (*IndepSet, Report) {
	return MISBridgeOrdered(g, solver, OrderAuto, parent)
}

// MISBridgeOrdered is MISBridge with an explicit phase order (ablation).
func MISBridgeOrdered(g *graph.Graph, solver Solver, ord Order, parent *trace.Span) (*IndepSet, Report) {
	rep := Report{Report: trace.Report{Strategy: "MIS-Bridge", Parent: parent}}
	dsp := rep.Decompose()
	bi := decomp.FindBridges(g, dsp)
	rep.Decomposed(dsp)

	n := g.NumVertices()
	isBridgeVtx := make([]bool, n)
	for _, e := range bi.Bridges {
		isBridgeVtx[e.U] = true
		isBridgeVtx[e.V] = true
	}
	// Sparsity of the two sides: H = G minus bridge endpoints (count its
	// edges in one parallel pass), G_B = the bridges.
	bridgeVerts := par.Count(n, func(i int) bool { return isBridgeVtx[i] })
	hEdges := par.Sum(n, func(i int) int64 {
		if isBridgeVtx[i] {
			return 0
		}
		var c int64
		for _, w := range g.Neighbors(int32(i)) {
			if !isBridgeVtx[w] {
				c++
			}
		}
		return c
	}) / 2
	rep.SparserFirst = pickFirst(ord,
		avgDeg(hEdges, int64(n)-bridgeVerts) <= avgDeg(int64(len(bi.Bridges)), bridgeVerts))

	// Note: when the bridge side goes first the phase sees every G-edge
	// among bridge endpoints — not only the bridges — or two endpoints
	// joined by a non-bridge edge could both enter the set (the paper's
	// sketch elides this; see DESIGN.md §5).
	set := twoPhases(&rep, g, func(i int) bool { return isBridgeVtx[i] != rep.SparserFirst },
		"solve/masked", solver, solver)
	return set, rep
}

// MISRand is the paper's Algorithm 11: random k-way labeling, MIS on
// H = ∪ᵢ Hᵢ (vertices with no cross edge) or on the cross side first —
// whichever is sparser — then on the reduced remainder.
func MISRand(g *graph.Graph, k int, seed uint64, solver Solver, parent *trace.Span) (*IndepSet, Report) {
	return MISRandOrdered(g, k, seed, solver, OrderAuto, parent)
}

// MISRandOrdered is MISRand with an explicit phase order (ablation).
func MISRandOrdered(g *graph.Graph, k int, seed uint64, solver Solver, ord Order, parent *trace.Span) (*IndepSet, Report) {
	rep := Report{Report: trace.Report{Strategy: "MIS-Rand", Parent: parent}}
	n := g.NumVertices()

	// Decomposition: the random labels plus the cross-edge classification.
	dsp := rep.Decompose()
	hasCross, partEdges := crossClassify(g, decomp.RandLabels(n, k, seed))
	rep.Decomposed(dsp)

	set := labeledTwoPhase(&rep, g, hasCross, partEdges, solver, ord)
	return set, rep
}

// MISMPX is the MPX analogue of Algorithm 11 (an extension beyond the
// paper): grow exponential-shift balls, then run the two masked phases
// over the ball labels — the vertices with no inter-ball edge and the
// reduced remainder, sparser side first.
func MISMPX(g *graph.Graph, beta float64, seed uint64, solver Solver, parent *trace.Span) (*IndepSet, Report) {
	rep := Report{Report: trace.Report{Strategy: "MIS-MPX", Parent: parent}}

	dsp := rep.Decompose()
	info := decomp.MPXGrow(g, beta, seed, dsp)
	hasCross, partEdges := crossClassify(g, info.Center)
	rep.Decomposed(dsp)

	set := labeledTwoPhase(&rep, g, hasCross, partEdges, solver, OrderAuto)
	return set, rep
}

// crossClassify marks, for a per-vertex part labeling, the vertices with
// at least one cross edge, and counts the intra-part edges.
func crossClassify(g *graph.Graph, label []int32) (hasCross []bool, partEdges int64) {
	n := g.NumVertices()
	hasCross = make([]bool, n)
	cnt := par.Sum(n, func(i int) int64 {
		v := int32(i)
		var intra int64
		cross := false
		for _, w := range g.Neighbors(v) {
			if label[w] == label[v] {
				intra++
			} else {
				cross = true
			}
		}
		hasCross[i] = cross
		return intra
	})
	return hasCross, cnt / 2
}

// labeledTwoPhase is the shared solve of the label-based decompositions
// (RAND, MPX): masked phase over the sparser of the no-cross side and the
// cross side, then the reduced remainder.
func labeledTwoPhase(rep *Report, g *graph.Graph, hasCross []bool, partEdges int64, solver Solver, ord Order) *IndepSet {
	n := g.NumVertices()
	crossVerts := par.Count(n, func(i int) bool { return hasCross[i] })
	crossEdges := g.NumEdges() - partEdges
	rep.SparserFirst = pickFirst(ord,
		avgDeg(partEdges, int64(n)) <= avgDeg(crossEdges, crossVerts))

	// As in MISBridge, the cross-first phase is vertex-induced from G so
	// intra-part edges between cross endpoints are respected.
	return twoPhases(rep, g, func(i int) bool { return hasCross[i] != rep.SparserFirst },
		"solve/masked", solver, solver)
}

// MISDeg2 is the paper's Algorithm 12: classify vertices by the degree-2
// threshold, run the special bounded-degree solver (KPSolver, standing in
// for [21]) on the degree ≤ 2 induced subgraph, then the general solver on
// the reduced remainder.
//
// Note: the paper's prose says "an MIS I_C in G_C" but the degree bound it
// invokes ("with its degree bounded by two ... a set of paths") holds for
// G_L, the induced subgraph on degree ≤ 2 vertices — G_C's high-degree
// endpoints can have arbitrarily many cross edges. We follow the intent and
// run the bounded-degree solver on G_L (see DESIGN.md).
func MISDeg2(g *graph.Graph, solver Solver, parent *trace.Span) (*IndepSet, Report) {
	return MISDeg2With(g, solver, KPSolver(), parent)
}

// MISDeg2With is MISDeg2 with an explicit bounded-degree solver for the
// G_L phase (GPU runs pass KPSolverOn(machine) so the phase's work is
// charged to the device).
func MISDeg2With(g *graph.Graph, solver, kp Solver, parent *trace.Span) (*IndepSet, Report) {
	rep := Report{Report: trace.Report{Strategy: "MIS-Deg2", Parent: parent}}

	// The decomposition is one classification pass — "a simple
	// computation" per the paper's Figure 2 discussion.
	dsp := rep.Decompose()
	label := decomp.DegkLabels(g, 2)
	rep.Decomposed(dsp)

	set := twoPhases(&rep, g, func(i int) bool { return label[i] == decomp.DegkLow },
		"solve/G_L", kp, solver)
	return set, rep
}
