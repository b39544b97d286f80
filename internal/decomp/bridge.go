package decomp

import (
	"sync/atomic"

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
// ancestor, marking every tree edge on the way (coverCycles, whose walks
// jump over edges an earlier walk marked). A tree edge can never be part
// of a cycle if no such walk crosses it, so the unmarked tree edges are
// exactly the bridges of G.
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

	// STEP 2: mark every tree edge that lies on a cycle.
	markSpan := sp.Begin("lca-mark")
	covered := coverCycles(g, tree)
	markSpan.End()

	// Unmarked tree edges are the bridges, listed by child vertex.
	child := par.Gather(n, func(lo, hi int, out []int32) []int32 {
		for i := lo; i < hi; i++ {
			if tree.Parent[i] >= 0 && !covered.Test(i) {
				out = append(out, int32(i))
			}
		}
		return out
	})
	bi.Bridges = make([]graph.Edge, len(child))
	par.For(len(child), func(i int) {
		v := child[i]
		bi.Bridges[i] = graph.Edge{U: v, V: tree.Parent[v]}.Canon()
	})
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

// coverCycles is Step 2 of Algorithm 1: for every non-tree edge {u, v} it
// walks from u and v up the forest to their least common ancestor L,
// always moving the deeper end, and marks each tree edge {x, P(x)} it
// crosses by setting covered[x]. The marked edges are the tree edges on
// some cycle.
//
// The paper's walk crosses one edge per step, so walks over the same part
// of the tree repeat each other's work (14.7 M steps on rgg-n-2-23). Here
// top[x] is an ancestor of x such that every tree edge between x and
// top[x] is already marked; top[x] == x when x's parent edge may not be.
// A step marks x's parent edge and only then sets top[x] = P(x), and each
// end moves with findTop, which follows top with path halving. The marked
// set is the paper's:
//   - A walk crosses every tree edge on its u→L and v→L paths, by a step
//     that marks it or by a jump over it, and an edge is jumped only after
//     some step marked it. The ends cannot meet below L, since any common
//     ancestor of u and v is L or above it.
//   - An end first rises above L by a jump: a step from L would need L to
//     be the deeper end while the other end is still below L. From then on
//     every tree edge between L and the higher end is marked, so a step
//     taken at or above L, which stays below the other end, marks one of
//     those again. No walk marks an edge off its u→L and v→L paths.
//
// Each tree edge is stepped over about once and then jumped, so the work
// falls from the sum of the cycles' lengths to near O(m·α(n)). The walks
// share top and covered through atomic loads and CAS, as par.UnionFind
// does, so the marked set, the bridge list and its order do not depend on
// the schedule.
func coverCycles(g *graph.Graph, tree *frontier.Tree) *par.Bitset {
	n := g.NumVertices()
	covered := par.NewBitset(n)
	top := make([]int32, n)
	par.Iota(top)
	par.Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := int32(i)
			for _, v := range g.Neighbors(u) {
				if v < u || tree.IsTreeEdge(u, v) {
					continue
				}
				x, y := findTop(top, u), findTop(top, v)
				for x != y {
					if tree.Level[x] < tree.Level[y] {
						x, y = y, x
					}
					// x is the deeper end; mark its parent edge and climb.
					p := tree.Parent[x]
					covered.Set(int(x))
					atomic.CompareAndSwapInt32(&top[x], x, p)
					x = findTop(top, p)
				}
			}
		}
	})
	return covered
}

// findTop follows top from x to a vertex whose top is itself, halving
// the path it climbs; losing a halving CAS to another walk is harmless.
func findTop(top []int32, x int32) int32 {
	for {
		t := atomic.LoadInt32(&top[x])
		if t == x {
			return x
		}
		if tt := atomic.LoadInt32(&top[t]); tt != t {
			atomic.CompareAndSwapInt32(&top[x], t, tt)
		}
		x = t
	}
}
