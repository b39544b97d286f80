package decomp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
)

// Rand runs the paper's Algorithm 2 (Dcmp_Rand): every vertex independently
// picks a part in {0, ..., k-1} uniformly at random; the result's Parts are
// the k induced subgraphs G[V_1], ..., G[V_k] and Cross is G_{k+1}, the
// edge-induced subgraph of edges whose endpoints fall in different parts.
//
// The assignment uses a pure per-vertex hash of (seed, v), so the
// decomposition is deterministic under a seed regardless of worker count.
// The paper tunes k near the average degree: 10 partitions on the CPU, 4 on
// the GPU, 100 for the high-degree kron instances.
func Rand(g *graph.Graph, k int, seed uint64) *Result {
	if k < 1 {
		panic(fmt.Sprintf("decomp: Rand with k=%d", k))
	}
	r := &Result{Technique: TechRand}
	n := g.NumVertices()
	label := make([]int32, n)
	par.For(n, func(i int) {
		label[i] = int32(par.HashRange(seed, int64(i), k))
	})
	r.Parts, r.Cross = graph.PartitionByLabel(g, label, k)
	r.Label = label
	r.Rounds = 1
	return r
}
