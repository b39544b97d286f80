package decomp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
)

// Indices of the two DEGk parts in Result.Parts.
const (
	// DegkLow is the index of G_L, the subgraph induced by vertices of
	// degree at most k.
	DegkLow = 0
	// DegkHigh is the index of G_H, the subgraph induced by vertices of
	// degree more than k.
	DegkHigh = 1
)

// Degk runs the paper's Algorithm 3 (Dcmp_Degreek): split the vertex set by
// the degree threshold k into V_L (degree ≤ k) and V_H (degree > k). The
// result's Parts are [G_L, G_H] and Cross is G_C, the edge-induced subgraph
// of the edges joining V_L and V_H. The paper always uses k = 2, for which
// G_L is a disjoint union of paths and cycles.
func Degk(g *graph.Graph, k int) *Result {
	if k < 0 {
		panic(fmt.Sprintf("decomp: Degk with k=%d", k))
	}
	r := &Result{Technique: TechDegk}
	n := g.NumVertices()
	label := make([]int32, n)
	par.For(n, func(i int) {
		if g.Degree(int32(i)) > int32(k) {
			label[i] = DegkHigh
		} else {
			label[i] = DegkLow
		}
	})
	r.Parts, r.Cross = graph.PartitionByLabel(g, label, 2)
	r.Label = label
	r.Rounds = 1
	return r
}
