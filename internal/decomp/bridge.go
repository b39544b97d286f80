package decomp

import (
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// BridgeInfo is the lightweight product of the bridge-finding phase of
// Algorithm 1: the bridge set and an O(1) membership test, without any
// subgraph materialization. Solvers that process the decomposition through
// vertex masks (MIS-Bridge) use this directly; Bridge builds the
// materialized Result on top of it.
type BridgeInfo struct {
	// Bridges lists every bridge (canonical orientation).
	Bridges []graph.Edge
	// Rounds is the BFS depth (the parallel round count of Step 1).
	Rounds int

	parent  []int32
	covered *par.Bitset
}

// IsBridge reports whether {a, b} is a bridge, in O(1).
func (bi *BridgeInfo) IsBridge(a, b int32) bool {
	if bi.parent[a] == b {
		return !bi.covered.Test(int(a))
	}
	if bi.parent[b] == a {
		return !bi.covered.Test(int(b))
	}
	return false
}

// FindBridges runs Steps 1–2 of the paper's Algorithm 1 (Dcmp_Bridge).
//
// Step 1 builds a parallel BFS forest (parent array P, level array L; the
// root r has P(r) = -1, L(r) = 0). Step 2 walks, for every non-tree edge
// {x, y} in parallel, from x and y up the tree to their least common
// ancestor, marking every tree edge on the way. A tree edge can never be
// part of a cycle if no such walk crosses it, so the unmarked tree edges
// are exactly the bridges of G.
//
// The run is traced as a "find-bridges" span under parent, with "bfs"
// (carrying the per-round frontier series) and "lca-mark" children (nil:
// untraced).
func FindBridges(g *graph.Graph, parent *trace.Span) *BridgeInfo {
	bi := &BridgeInfo{}
	sp := parent.Begin("find-bridges")
	n := g.NumVertices()

	// STEP 1: parallel BFS forest (multi-source so disconnected inputs
	// decompose too), direction-optimizing via the frontier engine.
	// Any BFS forest contains every bridge, and the deeper endpoint of
	// a bridge is fixed by the (direction-independent) level array, so
	// the bridge set and its listing order do not depend on which
	// forest the hybrid traversal finds.
	bfsSpan := sp.Begin("bfs")
	tree := (&frontier.Engine{Span: bfsSpan}).BFSForest(g)
	bi.Rounds = tree.Depth
	bfsSpan.Add("rounds", int64(tree.Depth))
	bfsSpan.End()

	// covered[v] marks the tree edge {v, P(v)} as lying on some cycle.
	covered := par.NewBitset(n)

	// STEP 2: for every non-tree edge {x, y}, climb to the LCA marking
	// tree edges. Climbing alternates on the deeper endpoint so both
	// walks meet exactly at the LCA.
	markSpan := sp.Begin("lca-mark")
	g.ForEachEdgePar(func(u, v int32) {
		if tree.IsTreeEdge(u, v) {
			return
		}
		x, y := u, v
		for x != y {
			if tree.Level[x] < tree.Level[y] {
				x, y = y, x
			}
			// x is the deeper endpoint; mark its parent edge and climb.
			covered.Set(int(x))
			x = tree.Parent[x]
		}
	})
	markSpan.End()

	// Unmarked tree edges are the bridges. Gather per chunk.
	nc := par.NumChunks(n)
	bufs := make([][]graph.Edge, nc)
	par.RangeIdx(n, func(w, lo, hi int) {
		var out []graph.Edge
		for i := lo; i < hi; i++ {
			if tree.Parent[i] >= 0 && !covered.Test(i) {
				out = append(out, graph.Edge{U: int32(i), V: tree.Parent[i]}.Canon())
			}
		}
		bufs[w] = out
	})
	for _, b := range bufs {
		bi.Bridges = append(bi.Bridges, b...)
	}
	bi.parent = tree.Parent
	bi.covered = covered
	sp.Add("bridges", int64(len(bi.Bridges)))
	sp.End()
	return bi
}

// Bridge runs the full Algorithm 1 and materializes the decomposition: the
// result's single part is G_c = G − B (whose connected components are the
// 2-edge-connected components G_1, G_2, ...); Cross is the edge-induced
// subgraph G_b of the bridge set B.
func Bridge(g *graph.Graph) *Result {
	r := &Result{Technique: TechBridge}
	bi := FindBridges(g, nil)
	r.Rounds = bi.Rounds
	r.Bridges = bi.Bridges
	gc, cross := graph.SplitEdges(g, func(a, b int32) bool { return !bi.IsBridge(a, b) })
	r.Parts = []*graph.Sub{graph.IdentitySub(gc)}
	r.Cross = cross
	r.Label = make([]int32, g.NumVertices()) // all zero: the single G_c part
	return r
}
