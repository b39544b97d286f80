package mis

import (
	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// kpSeed fixes the id-scrambled priority that orients every edge of the
// bounded-degree graph.
const kpSeed = 0x927d5f3a

// KPSolver returns the bounded-degree MIS solver used for the G_L part of
// the DEG2 decomposition (degree ≤ 2: disjoint paths and cycles). It stands
// in for the orientation-based algorithm of Kothapalli and Pindiproli [21]
// that the paper plugs into MIS-Deg2: as in the paper, vertex numbers
// induce the orientation — a fixed id-derived priority orients every edge
// toward its higher-priority endpoint, and each round the sinks (local
// priority minima among undecided neighbors) join the set.
//
// Because every active vertex has at most two undecided neighbors, a round
// is a handful of comparisons with no per-round priority redraw and no
// neighborhood hashing; on the paper's real-world graphs with many
// degree ≤ 2 vertices this is the cheap special-purpose solver that "can
// easily outperform algorithms for general graphs" (§V-C discussion).
//
// The masked run requires every active vertex to have at most two
// *undecided* neighbors.
func KPSolver() Solver {
	return func(g *graph.Graph, status []State, set *IndepSet, active []int32, sp *trace.Span) Stats {
		return localMinRun(g, kpSeed, par.Range, status, set, active, sp)
	}
}

// KPSolverOn is KPSolver running its sweeps as kernels on machine, so GPU
// runs charge the phase's work to the device and its phase span.
func KPSolverOn(machine *bsp.Machine) Solver {
	return func(g *graph.Graph, status []State, set *IndepSet, active []int32, sp *trace.Span) Stats {
		return localMinRun(g, kpSeed, machine.In(sp), status, set, active, sp)
	}
}
