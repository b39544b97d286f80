// Package bipartite provides a Hopcroft–Karp maximum bipartite matching.
// The paper motivates maximal matching with sparse-matrix applications
// (Vastenhouw & Bisseling [29]); there the gold standard is the *maximum*
// matching (the structural rank of the matrix), and this package supplies
// it as an exact quality oracle for the maximal matchings the library
// computes — every maximal matching must reach at least half of it.
package bipartite

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matching"
)

// MaxMatching computes a maximum matching of a bipartite graph with
// Hopcroft–Karp in O(E·√V). side[v] gives v's side; an error is returned
// if any edge joins two vertices of the same side.
func MaxMatching(g *graph.Graph, side []bool) (*matching.Matching, error) {
	n := g.NumVertices()
	if len(side) != n {
		return nil, fmt.Errorf("bipartite: side has %d entries for %d vertices", len(side), n)
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			if side[w] == side[v] {
				return nil, fmt.Errorf("bipartite: edge {%d,%d} joins two side-%v vertices", v, w, side[v])
			}
		}
	}

	m := matching.NewMatching(n)
	mate := m.Mate
	const inf = int32(1) << 30
	dist := make([]int32, n)
	queue := make([]int32, 0, n)

	// bfs layers the graph from free left vertices; reports whether an
	// augmenting path exists.
	bfs := func() bool {
		queue = queue[:0]
		found := false
		for v := 0; v < n; v++ {
			if side[v] { // right side handled through left scans
				dist[v] = inf
				continue
			}
			if mate[v] == matching.Unmatched {
				dist[v] = 0
				queue = append(queue, int32(v))
			} else {
				dist[v] = inf
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, w := range g.Neighbors(u) {
				next := mate[w]
				if next == matching.Unmatched {
					found = true
					continue
				}
				if dist[next] == inf {
					dist[next] = dist[u] + 1
					queue = append(queue, next)
				}
			}
		}
		return found
	}

	// dfs extends an augmenting path from left vertex u along the layers.
	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		for _, w := range g.Neighbors(u) {
			next := mate[w]
			if next == matching.Unmatched || (dist[next] == dist[u]+1 && dfs(next)) {
				mate[u] = w
				mate[w] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for v := 0; v < n; v++ {
			if !side[v] && mate[v] == matching.Unmatched {
				dfs(int32(v))
			}
		}
	}
	return m, nil
}
