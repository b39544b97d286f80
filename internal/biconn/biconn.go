// Package biconn computes biconnected components (blocks) and articulation
// points. The paper's related work (§I-A) traces the decomposition idea to
// Hochbaum's use of biconnected components for matching/coloring/vertex
// cover; this package provides that decomposition as an extension beyond
// the paper's three measured techniques, using the same BFS + LCA-walk
// machinery as the BRIDGE decomposition.
//
// The parallel algorithm unions, for every non-tree edge, all tree edges on
// its fundamental cycle together with the non-tree edge itself, under a
// concurrent union-find. Edges end up in the same class exactly when they
// lie on a common simple cycle — the block relation. Bridges appear as
// singleton classes, and a vertex is an articulation point exactly when its
// incident edges span more than one block.
package biconn

import (
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// Result is a biconnected decomposition of a graph.
type Result struct {
	// EdgeBlock[i] is the dense block id of the i-th edge of g.Edges()
	// (the canonical sorted edge list).
	EdgeBlock []int32
	// NumBlocks is the number of blocks.
	NumBlocks int
	// IsArticulation[v] reports whether v is a cut vertex.
	IsArticulation []bool
	// Edges is the canonical edge list EdgeBlock indexes.
	Edges []graph.Edge
}

// Blocks computes the biconnected decomposition with the parallel
// fundamental-cycle algorithm, appending its BFS's per-round frontier
// series to sp (nil: untraced).
func Blocks(g *graph.Graph, sp *trace.Span) *Result {
	n := g.NumVertices()
	edges := g.Edges()
	m := len(edges)

	// Edge ids: tree edge {v, parent(v)} ↦ child v (ids [0, n));
	// every edge also has its position id n + i in the canonical list.
	// The union-find spans [0, n+m); tree edges use their child slot and
	// alias their list slot to it, so queries by either id agree.
	tree := (&frontier.Engine{PullDiv: frontier.NoPull, Span: sp}).BFSForest(g)
	uf := par.NewUnionFind(n + m)

	// Alias list ids of tree edges to their child slot.
	par.For(m, func(i int) {
		e := edges[i]
		switch {
		case tree.Parent[e.U] == e.V:
			uf.Union(int32(n+i), e.U)
		case tree.Parent[e.V] == e.U:
			uf.Union(int32(n+i), e.V)
		}
	})

	// Fundamental cycle union: for each non-tree edge, climb to the LCA
	// uniting every tree edge on the way with the non-tree edge.
	par.For(m, func(i int) {
		e := edges[i]
		if tree.IsTreeEdge(e.U, e.V) {
			return
		}
		x, y := e.U, e.V
		for x != y {
			if tree.Level[x] < tree.Level[y] {
				x, y = y, x
			}
			uf.Union(int32(n+i), x)
			x = tree.Parent[x]
		}
	})

	// Dense block labels per edge, ordered by each block's root.
	r := &Result{
		IsArticulation: make([]bool, n),
		Edges:          edges,
	}
	root := make([]int32, m)
	par.For(m, func(i int) { root[i] = uf.Find(int32(n + i)) })
	r.EdgeBlock, r.NumBlocks = par.DenseRelabel(root, n+m)

	// Articulation points: incident edges in ≥ 2 distinct blocks.
	first := make([]int32, n)
	par.Fill(first, int32(-1))
	mark := func(v int32, b int32) {
		if first[v] == -1 {
			first[v] = b
		} else if first[v] != b {
			r.IsArticulation[v] = true
		}
	}
	for i, e := range edges { // sequential: two cheap writes per edge
		mark(e.U, r.EdgeBlock[i])
		mark(e.V, r.EdgeBlock[i])
	}
	return r
}
