package biconn

import "repro/internal/graph"

// BlocksSequential computes the biconnected decomposition with the
// classical sequential Hopcroft–Tarjan lowpoint algorithm (iterative). It
// is the trusted oracle for validating the parallel algorithm.
func BlocksSequential(g *graph.Graph) *Result {
	n := g.NumVertices()
	edges := g.Edges()
	m := len(edges)

	// Index edges for O(1) id lookup during the DFS.
	edgeID := map[graph.Edge]int32{}
	for i, e := range edges {
		edgeID[e] = int32(i)
	}

	r := &Result{
		EdgeBlock:      make([]int32, m),
		IsArticulation: make([]bool, n),
		Edges:          edges,
	}
	for i := range r.EdgeBlock {
		r.EdgeBlock[i] = -1
	}

	disc := make([]int32, n)
	low := make([]int32, n)
	parent := make([]int32, n)
	childCnt := make([]int32, n)
	var timer int32
	var stack []int32 // edge ids
	var next int32    // next dense block id

	popBlock := func(until int32) {
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r.EdgeBlock[id] = next
			if id == until {
				break
			}
		}
		next++
	}

	type frame struct {
		v  int32
		ni int
	}
	var dfs []frame
	for root := int32(0); int(root) < n; root++ {
		if disc[root] != 0 {
			continue
		}
		timer++
		disc[root], low[root] = timer, timer
		parent[root] = -1
		dfs = append(dfs[:0], frame{root, 0})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := f.v
			ns := g.Neighbors(v)
			if f.ni < len(ns) {
				w := ns[f.ni]
				f.ni++
				if w == parent[v] {
					// The single adjacency occurrence of the parent is the
					// tree edge we arrived by (the graph is simple).
					continue
				}
				if disc[w] == 0 {
					timer++
					disc[w], low[w] = timer, timer
					parent[w] = v
					childCnt[v]++
					stack = append(stack, edgeID[graph.Edge{U: v, V: w}.Canon()])
					dfs = append(dfs, frame{w, 0})
				} else if disc[w] < disc[v] {
					// Back edge to an ancestor: push once (from the
					// descendant side only).
					stack = append(stack, edgeID[graph.Edge{U: v, V: w}.Canon()])
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
				}
				continue
			}
			dfs = dfs[:len(dfs)-1]
			p := parent[v]
			if p < 0 {
				continue
			}
			if low[v] < low[p] {
				low[p] = low[v]
			}
			if low[v] >= disc[p] {
				// p separates v's subtree: close the block.
				popBlock(edgeID[graph.Edge{U: p, V: v}.Canon()])
				if parent[p] != -1 || childCnt[p] >= 2 {
					r.IsArticulation[p] = true
				}
			}
		}
	}

	// Count blocks (isolated vertices contribute none; every edge got a
	// label because each tree edge's block closes at its parent).
	r.NumBlocks = int(next)
	return r
}
