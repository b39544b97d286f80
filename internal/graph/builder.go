package graph

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/par"
)

// Builder accumulates undirected edges and produces a simple CSR Graph.
// Self loops are dropped; parallel edges (in either direction) are merged.
// The zero value is ready to use after SetNumVertices, or grow the vertex
// count implicitly via AddEdge.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// SetNumVertices raises the vertex count to at least n.
func (b *Builder) SetNumVertices(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the undirected edge {u, v}. Self loops are ignored. The
// vertex count grows to cover both endpoints.
func (b *Builder) AddEdge(u, v int32) {
	if u == v || u < 0 || v < 0 {
		return
	}
	if int(u) >= b.n {
		b.n = int(u) + 1
	}
	if int(v) >= b.n {
		b.n = int(v) + 1
	}
	b.edges = append(b.edges, Edge{u, v}.Canon())
}

// AddEdges records a batch of edges via AddEdge semantics.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
}

// Build produces the CSR graph. The builder can keep accumulating edges and
// Build again (each Build is a fresh snapshot).
func (b *Builder) Build() *Graph {
	return FromEdges(b.n, b.edges)
}

// FromEdges builds a simple undirected CSR graph on n vertices from an edge
// list. Self loops are dropped, duplicates merged, endpoints may be in
// either order. The input slice is not modified.
func FromEdges(n int, edges []Edge) *Graph {
	// Canonicalize and drop self loops into a scratch copy.
	scratch := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		scratch = append(scratch, e.Canon())
	}
	// Sort + dedupe. Sorting dominates build time; it runs once per graph
	// construction, outside all measured algorithm sections. The parallel
	// merge sort delegates to the standard library on small inputs or a
	// single core.
	par.SortSlice(scratch, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	uniq := scratch[:0]
	for i, e := range scratch {
		if i > 0 && e == scratch[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	return fromCanonicalEdges(n, uniq)
}

// scatterParallelCutoff is the edge count below which the CSR scatter runs
// sequentially: per-edge atomic adds only pay off once there is enough work
// to share.
const scatterParallelCutoff = 1 << 15

// fromCanonicalEdges builds a CSR graph from deduplicated edges with U < V.
// The degree count and edge scatter run in parallel over the edge list with
// per-vertex atomic cursors; the scatter order inside each adjacency list is
// schedule-dependent, so each list is sorted afterwards — the resulting
// graph is identical under any worker count.
func fromCanonicalEdges(n int, edges []Edge) *Graph {
	m := len(edges)
	deg := make([]int32, n)
	parallel := par.Workers() > 1 && m >= scatterParallelCutoff
	if parallel {
		par.For(m, func(i int) {
			e := edges[i]
			atomic.AddInt32(&deg[e.U], 1)
			atomic.AddInt32(&deg[e.V], 1)
		})
	} else {
		for _, e := range edges {
			deg[e.U]++
			deg[e.V]++
		}
	}
	off := par.ExclusiveSum32(deg)
	adj := make([]int32, off[n])
	pos := make([]int64, n)
	par.Copy(pos, off[:n])
	if parallel {
		par.For(m, func(i int) {
			e := edges[i]
			adj[atomic.AddInt64(&pos[e.U], 1)-1] = e.V
			adj[atomic.AddInt64(&pos[e.V], 1)-1] = e.U
		})
	} else {
		for _, e := range edges {
			adj[pos[e.U]] = e.V
			pos[e.U]++
			adj[pos[e.V]] = e.U
			pos[e.V]++
		}
	}
	// Sort each adjacency list (parallel over vertices; slices.Sort runs
	// an insertion sort on the short lists that dominate these graphs).
	g := &Graph{off: off, adj: adj}
	par.For(n, func(i int) {
		slices.Sort(adj[off[i]:off[i+1]])
	})
	return g
}
