package graph

import "repro/internal/par"

// Shared test fixtures.

// path returns the path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// cycle returns the cycle graph on n vertices.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// star returns K_{1,n-1} with center 0.
func star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

// grid returns the r×c grid graph, vertex (i,j) = i*c+j.
func grid(r, c int) *Graph {
	b := NewBuilder(r * c)
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return b.Build()
}

// randomGraph returns a G(n, m)-style random simple graph, deterministic
// under seed, possibly disconnected.
func randomGraph(n int, m int, seed uint64) *Graph {
	r := par.NewRNG(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

// paperGraph builds the 8-vertex example graph of Figure 1 in the paper:
// vertices a..h = 0..7 with a triangle {a,b,c}, bridge c-d, square
// {d,e,f,g} with diagonal, and pendant h off g. Constructed to have known
// bridges and 2-edge-connected components for decomposition tests.
func paperGraph() *Graph {
	// a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7
	b := NewBuilder(8)
	b.AddEdge(0, 1) // a-b
	b.AddEdge(1, 2) // b-c
	b.AddEdge(0, 2) // a-c
	b.AddEdge(2, 3) // c-d  (bridge)
	b.AddEdge(3, 4) // d-e
	b.AddEdge(4, 5) // e-f
	b.AddEdge(5, 6) // f-g
	b.AddEdge(3, 6) // d-g
	b.AddEdge(6, 7) // g-h  (bridge)
	return b.Build()
}

// FromAdjacency builds a graph directly from per-vertex neighbor lists; it
// symmetrizes and deduplicates.
func FromAdjacency(lists [][]int32) *Graph {
	b := NewBuilder(len(lists))
	for u, ns := range lists {
		for _, v := range ns {
			b.AddEdge(int32(u), v)
		}
	}
	return b.Build()
}
