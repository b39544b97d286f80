// Package graph provides the compressed-sparse-row (CSR) undirected graph
// representation shared by every algorithm in this repository, together with
// construction, subgraph extraction, connectivity, statistics, and a simple
// text interchange format.
//
// Vertices are dense int32 identifiers in [0, NumVertices()). Graphs are
// simple (no self loops, no parallel edges) and undirected: each undirected
// edge {u, v} is stored twice in the adjacency array, once per direction.
// This mirrors the paper's setup ("directed edges are converted to
// undirected edges and self-loops in the graphs are ignored").
package graph

import (
	"fmt"

	"repro/internal/par"
)

// Graph is an immutable undirected graph in CSR form. The zero value is the
// empty graph. Construct with a Builder, FromEdges, or a generator.
type Graph struct {
	off []int64 // len NumVertices()+1; adjacency list of v is adj[off[v]:off[v+1]]
	adj []int32 // neighbor ids, sorted ascending within each list

	// fp is the content fingerprint carried by the binary loaders (the
	// .scsr header stores it, so mmap-backed graphs never re-hash their
	// adjacency). Zero means "not known"; it is only ever set during
	// construction, before the graph is shared, so Fingerprint needs no
	// synchronization.
	fp uint64
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// NumEdges reports the number of undirected edges {u, v}.
func (g *Graph) NumEdges() int64 {
	if len(g.off) == 0 {
		return 0
	}
	return g.off[len(g.off)-1] / 2
}

// NumArcs reports the number of stored directed arcs (2 × NumEdges).
func (g *Graph) NumArcs() int64 {
	if len(g.off) == 0 {
		return 0
	}
	return g.off[len(g.off)-1]
}

// Degree reports the degree of v.
func (g *Graph) Degree(v int32) int32 {
	return int32(g.off[v+1] - g.off[v])
}

// Neighbors returns the adjacency list of v, sorted ascending. The returned
// slice aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether the undirected edge {u, v} exists, by binary
// search in the smaller endpoint's sorted adjacency list.
func (g *Graph) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == v
}

// MaxDegree reports the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int32 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return par.MaxIndexed(n, int32(0), func(i int) int32 {
		return g.Degree(int32(i))
	})
}

// AvgDegree reports the average vertex degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(n)
}

// Edges returns every undirected edge {u, v} with u < v, in parallel-stable
// order (sorted by u, then v). The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	n := g.NumVertices()
	// Count forward arcs per vertex, prefix-sum, fill.
	cnt := make([]int32, n)
	par.For(n, func(i int) {
		v := int32(i)
		var c int32
		for _, w := range g.Neighbors(v) {
			if w > v {
				c++
			}
		}
		cnt[i] = c
	})
	off := par.ExclusiveSum32(cnt)
	edges := make([]Edge, off[n])
	par.For(n, func(i int) {
		v := int32(i)
		k := off[i]
		for _, w := range g.Neighbors(v) {
			if w > v {
				edges[k] = Edge{v, w}
				k++
			}
		}
	})
	return edges
}

// ForEachEdgePar calls fn for every undirected edge {u, v} with u < v, in
// parallel. fn must be safe for concurrent invocation.
func (g *Graph) ForEachEdgePar(fn func(u, v int32)) {
	n := g.NumVertices()
	par.Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := int32(i)
			for _, v := range g.Neighbors(u) {
				if v > u {
					fn(u, v)
				}
			}
		}
	})
}

// Validate checks structural invariants (sorted adjacency, symmetric arcs,
// no self loops, ids in range) and returns a descriptive error on the first
// violation. Intended for tests and tool entry points, not hot paths.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.off) != 0 && g.off[0] != 0 {
		return fmt.Errorf("graph: off[0] = %d, want 0", g.off[0])
	}
	// Offsets must be fully sane before any adjacency access (a corrupt
	// offset elsewhere would make Neighbors/HasEdge panic mid-check).
	for v := 0; v < n; v++ {
		if g.off[v+1] < g.off[v] {
			return fmt.Errorf("graph: off not monotone at %d", v)
		}
	}
	if n > 0 && g.off[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: off[n] = %d but adjacency holds %d arcs", g.off[n], len(g.adj))
	}
	for v := 0; v < n; v++ {
		ns := g.Neighbors(int32(v))
		for i, w := range ns {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at pos %d", v, i)
			}
			if !g.HasEdge(w, int32(v)) {
				return fmt.Errorf("graph: arc %d->%d has no reverse", v, w)
			}
		}
	}
	return nil
}

// Edge is an undirected edge; constructors normalize U < V.
type Edge struct {
	U, V int32
}

// Canon returns e with endpoints ordered so U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}
