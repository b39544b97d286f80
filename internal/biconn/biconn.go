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
	"sync/atomic"

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
	uf := newUnionFind(n + m)

	// Alias list ids of tree edges to their child slot.
	par.For(m, func(i int) {
		e := edges[i]
		switch {
		case tree.Parent[e.U] == e.V:
			uf.union(n+i, int(e.U))
		case tree.Parent[e.V] == e.U:
			uf.union(n+i, int(e.V))
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
			uf.union(n+i, int(x))
			x = tree.Parent[x]
		}
	})

	// Dense block labels per edge.
	r := &Result{
		EdgeBlock:      make([]int32, m),
		IsArticulation: make([]bool, n),
		Edges:          edges,
	}
	rep := make([]int32, m)
	par.For(m, func(i int) { rep[i] = int32(uf.find(n + i)) })
	remap := map[int32]int32{}
	for i := 0; i < m; i++ {
		id, ok := remap[rep[i]]
		if !ok {
			id = int32(len(remap))
			remap[rep[i]] = id
		}
		r.EdgeBlock[i] = id
	}
	r.NumBlocks = len(remap)

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

// unionFind is a lock-free union-find (CAS on parent pointers with path
// halving). Without ranks the tree depth is not theoretically bounded, but
// path halving keeps it shallow in practice for these workloads.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n)}
	par.Iota(uf.parent)
	return uf
}

func (uf *unionFind) find(x int) int {
	for {
		p := atomic.LoadInt32(&uf.parent[x])
		if int(p) == x {
			return x
		}
		gp := atomic.LoadInt32(&uf.parent[p])
		if gp != p {
			// Path halving; losing the race is harmless.
			atomic.CompareAndSwapInt32(&uf.parent[x], p, gp)
		}
		x = int(p)
	}
}

func (uf *unionFind) union(a, b int) {
	for {
		ra, rb := uf.find(a), uf.find(b)
		if ra == rb {
			return
		}
		// Point the larger root at the smaller (deterministic direction).
		if ra < rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&uf.parent[ra], int32(ra), int32(rb)) {
			return
		}
	}
}
