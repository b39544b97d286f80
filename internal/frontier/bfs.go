package frontier

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Tree is a BFS forest over a graph, the parent and level arrays
// (P(v), L(v)) that Step 1 of the paper's BRIDGE decomposition
// (Algorithm 1) requires. For a root r, Parent[r] == -1 and
// Level[r] == 0, matching the paper's convention.
type Tree struct {
	Parent []int32
	Level  []int32
	// Depth is the number of BFS levels executed (the height of the
	// deepest tree plus one); it is also the number of parallel rounds,
	// the quantity that makes BRIDGE slow on large-diameter graphs.
	Depth int
}

// IsTreeEdge reports whether {u, v} is a tree edge of the forest.
func (t *Tree) IsTreeEdge(u, v int32) bool {
	return t.Parent[u] == v || t.Parent[v] == u
}

// BFSForest runs a level-synchronous BFS on e from the smallest-id vertex
// of every connected component, so every vertex is reached and
// disconnected inputs (the RAND and DEGk subgraphs "may be disconnected
// in nature") decompose too. An engine with PullDiv NoPull is the plain
// BFS of the paper's BRIDGE; the default engine is direction-optimizing
// (Beamer et al.), an extension the bfs-ablation experiment measures.
//
// Each round relaxes the frontier with an atomic visited claim whose
// winner becomes the parent, so Level and Depth are deterministic (levels
// are direction independent) while Parent may vary between runs in pushed
// rounds and is the smallest-id frontier neighbor in pulled rounds.
func (e *Engine) BFSForest(g *graph.Graph) *Tree {
	n := g.NumVertices()
	t := &Tree{
		Parent: make([]int32, n),
		Level:  make([]int32, n),
	}
	// The union-find's roots are the components' smallest vertices,
	// gathered in id order.
	uf := graph.ComponentForest(g)
	visited := par.NewBitset(n)
	roots := par.Gather(n, func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if v := int32(i); uf.Find(v) == v {
				visited.Set(i)
				t.Parent[i] = -1
				out = append(out, v)
			}
		}
		return out
	})

	for f := New(n, roots); !f.IsEmpty(); {
		t.Depth++
		lv := int32(t.Depth)
		f = e.EdgeMap(g, f, Ops{
			Cond: func(v int32) bool { return !visited.Test(int(v)) },
			Update: func(u, v int32) bool {
				if visited.TestAndSet(int(v)) {
					t.Parent[v] = u
					t.Level[v] = lv
					return true
				}
				return false
			},
		})
	}
	return t
}
