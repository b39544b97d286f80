package graph

import "repro/internal/par"

// ConnectedComponents labels every vertex with a component id in
// [0, numComponents): a parallel pass unites the endpoints of every edge
// under par's union-find, whose roots are each component's smallest
// vertex, and the roots become dense ids. Ids are therefore assigned in
// order of each component's smallest vertex, under any worker count.
func ConnectedComponents(g *Graph) (label []int32, numComponents int) {
	n := g.NumVertices()
	uf := par.NewUnionFind(n)
	// Each edge is united once, from its larger endpoint; lists need not
	// be sorted (raw .scsr files may carry unsorted ones).
	par.Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := int32(i)
			for _, w := range g.Neighbors(v) {
				if w < v {
					uf.Union(v, w)
				}
			}
		}
	})
	root := make([]int32, n)
	par.For(n, func(i int) { root[i] = uf.Find(int32(i)) })
	return par.DenseRelabel(root, n)
}

// Connect returns g if it is already connected; otherwise it returns a new
// graph with one extra edge per additional component, linking vertex 0 of
// the first component to the smallest vertex of each other component. This
// mirrors the paper's dataset preparation: "for graphs that are not
// connected, we add additional edges to make the graph connected."
func Connect(g *Graph) (*Graph, int) {
	label, nc := ConnectedComponents(g)
	if nc <= 1 {
		return g, 0
	}
	n := g.NumVertices()
	// Smallest vertex of each component. Labels are ordered by smallest
	// vertex, so a single forward scan suffices.
	first := make([]int32, nc)
	par.Fill(first, int32(-1))
	for v := 0; v < n; v++ {
		if first[label[v]] == -1 {
			first[label[v]] = int32(v)
		}
	}
	edges := g.Edges()
	for c := 1; c < nc; c++ {
		edges = append(edges, Edge{first[0], first[c]})
	}
	return FromEdges(n, edges), nc - 1
}
