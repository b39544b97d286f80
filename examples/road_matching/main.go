// Multilevel graph coarsening on a road network via maximal matching — the
// partitioning application the paper cites for MM (Her & Pellegrini).
//
// The example generates a road-class graph (long degree-2 chains, large
// diameter), computes a maximal matching with the baseline GM and with the
// paper's Table I winner MM-Rand, then contracts the matched pairs to
// produce the next coarsening levels, reporting times, rounds and the
// coarsening ratio. (On road graphs the two run close — the paper's big
// MM-Rand wins come from the rgg instances, where GM's vain tendency
// explodes the round count; try swapping the generator to see it.)
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
)

func main() {
	g := gen.Road(120, 120, 5, 0.4, 3)
	fmt.Printf("road network: %d junctions, %d segments, avg degree %.1f\n\n",
		g.NumVertices(), g.NumEdges(), g.AvgDegree())

	// Baseline GM: lowest-id handshake matching — pays the vain tendency
	// on the long chains.
	start := time.Now()
	gm, gmStats := matching.GM(g)
	gmTime := time.Since(start)
	if err := matching.Verify(g, gm); err != nil {
		log.Fatal(err)
	}

	// MM-Rand (Algorithm 5) with the paper's 10 partitions.
	mr, rep := matching.MMRand(g, 10, 1, matching.GMSolver(), nil)
	if err := matching.Verify(g, mr); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("GM:       %8v  %6d rounds  %d matched\n", gmTime, gmStats.Rounds, gm.Cardinality())
	fmt.Printf("MM-Rand:  %8v  %6d rounds  %d matched  (decomp %v)\n",
		rep.Total(), rep.Rounds, mr.Cardinality(), rep.Decomp)

	// Coarsen: contract matched pairs, keep one endpoint as the
	// representative, rebuild the quotient graph.
	coarse := contract(g, mr)
	fmt.Printf("\ncoarsened: %d → %d vertices (ratio %.2f), %d edges\n",
		g.NumVertices(), coarse.NumVertices(),
		float64(g.NumVertices())/float64(coarse.NumVertices()), coarse.NumEdges())

	// A second level, as a multilevel partitioner would do.
	m2, _ := matching.MMRand(coarse, 10, 2, matching.GMSolver(), nil)
	coarse2 := contract(coarse, m2)
	fmt.Printf("level 2:   %d → %d vertices, %d edges\n",
		coarse.NumVertices(), coarse2.NumVertices(), coarse2.NumEdges())
}

// contract builds the quotient graph after contracting every matched pair.
func contract(g *graph.Graph, m *matching.Matching) *graph.Graph {
	n := g.NumVertices()
	// Representative of v: the smaller endpoint of its matched pair.
	rep := make([]int32, n)
	for v := int32(0); int(v) < n; v++ {
		w := m.Mate[v]
		if w != matching.Unmatched && w < v {
			rep[v] = w
		} else {
			rep[v] = v
		}
	}
	// Dense renumbering of representatives.
	id, nc := par.DenseRelabel(rep, n)
	b := graph.NewBuilder(nc)
	for _, e := range g.Edges() {
		b.AddEdge(id[e.U], id[e.V]) // self loops from contracted pairs drop automatically
	}
	return b.Build()
}
