package graph

import (
	"fmt"
	"sort"

	"repro/internal/par"
)

// Sub is a materialized subgraph of a parent graph, with the local→global
// vertex mapping needed to transfer solutions (matchings, colorings,
// independent sets) computed on the subgraph back to the parent.
type Sub struct {
	// G is the subgraph itself, over local vertex ids [0, G.NumVertices()).
	G *Graph
	// ToGlobal maps local vertex ids to parent ids. It is strictly
	// increasing, so local order preserves global order.
	ToGlobal []int32
}

// NumVertices reports the subgraph's vertex count.
func (s *Sub) NumVertices() int { return s.G.NumVertices() }

// NumEdges reports the subgraph's edge count.
func (s *Sub) NumEdges() int64 { return s.G.NumEdges() }

// PartitionByLabel splits g according to a vertex labeling into k vertex-
// induced subgraphs (one per label in [0, k)) plus the edge-induced
// subgraph of all cross edges (edges whose endpoints carry different
// labels). It materializes the vertex-labelling decompositions:
//
//   - RAND:       label = random partition id, k parts, cross = G_{k+1};
//   - DEGk:       label = 0 (deg ≤ k) or 1 (deg > k), cross = G_C;
//   - MULTILEVEL: label = partition id, k parts, cross = the cut edges.
//
// len(label) must equal g.NumVertices() and every label must lie in [0, k).
func PartitionByLabel(g *Graph, label []int32, k int) (parts []*Sub, cross *Sub) {
	n := g.NumVertices()
	if len(label) != n {
		panic(fmt.Sprintf("graph: PartitionByLabel label length %d, graph has %d vertices", len(label), n))
	}

	// Intra-part degrees and cross degrees.
	intraDeg := make([]int32, n)
	crossDeg := make([]int32, n)
	par.For(n, func(i int) {
		v := int32(i)
		l := label[i]
		if l < 0 || int(l) >= k {
			panic(fmt.Sprintf("graph: label %d out of range [0,%d)", l, k))
		}
		var in, cr int32
		for _, w := range g.Neighbors(v) {
			if label[w] == l {
				in++
			} else {
				cr++
			}
		}
		intraDeg[i] = in
		crossDeg[i] = cr
	})

	// Part l's vertices are the l-th bucket of the stable order by label,
	// so they run in id order, and a vertex's local id is its position
	// within the bucket.
	order := par.OrderByKey(label)
	first := make([]int, k+1)
	for l := range first {
		first[l] = sort.Search(n, func(p int) bool { return int(label[order[p]]) >= l })
	}
	localID := make([]int32, n)
	par.For(n, func(p int) {
		v := order[p]
		localID[v] = int32(p - first[label[v]])
	})

	parts = make([]*Sub, k)
	for l := 0; l < k; l++ {
		tg := order[first[l]:first[l+1]:first[l+1]]
		parts[l] = buildPart(g, label, int32(l), tg, localID, intraDeg)
	}
	cross = buildSub(g, crossDeg, 0, func(v, w int32) bool { return label[v] == label[w] }, false)
	return parts, cross
}

// buildPart materializes the part whose vertices are tg (ascending global
// ids, renumbered by localID) and whose edges are those to neighbours w
// with label[w] == l; deg[v] counts v's such neighbours. The label test
// stays inline, since it runs once per arc.
func buildPart(g *Graph, label []int32, l int32, tg, localID, deg []int32) *Sub {
	m := len(tg)
	partDeg := make([]int32, m)
	par.For(m, func(j int) { partDeg[j] = deg[tg[j]] })
	off := par.ExclusiveSum32(partDeg)
	adj := make([]int32, off[m])
	par.For(m, func(j int) {
		p := off[j]
		for _, w := range g.Neighbors(tg[j]) {
			if label[w] == l {
				adj[p] = localID[w] // monotone in w, so list stays sorted
				p++
			}
		}
	})
	return &Sub{G: &Graph{off: off, adj: adj}, ToGlobal: tg}
}

// KeepEdges returns the graph of the edges {u, v} of g with keep(u, v)
// true, over every vertex id of g: g itself when keep holds for every
// edge, since graphs are immutable. keep must be symmetric and safe for
// concurrent calls.
func KeepEdges(g *Graph, keep func(u, v int32) bool) *Graph {
	n := g.NumVertices()
	deg := make([]int32, n)
	par.For(n, func(i int) {
		v := int32(i)
		var d int32
		for _, w := range g.Neighbors(v) {
			if keep(v, w) {
				d++
			}
		}
		deg[i] = d
	})
	off := par.ExclusiveSum32(deg)
	if off[n] == g.NumArcs() {
		return g
	}
	return &Graph{off: off, adj: fillEdges(g, nil, nil, off, keep, true)}
}

// SplitEdges splits the edges of g by keep in one degree pass. kept is
// KeepEdges(g, keep); cross is the edge-induced subgraph of the other
// edges, over their endpoints, whose degrees are g's less kept's. keep
// must be symmetric and safe for concurrent calls.
func SplitEdges(g *Graph, keep func(u, v int32) bool) (kept *Graph, cross *Sub) {
	kept = KeepEdges(g, keep)
	n := g.NumVertices()
	crossDeg := make([]int32, n)
	par.For(n, func(i int) {
		v := int32(i)
		crossDeg[i] = g.Degree(v) - kept.Degree(v)
	})
	cross = buildSub(g, crossDeg, 0, keep, false)
	return kept, cross
}

// Subgraph materializes the subgraph of g on the vertices v with in(v),
// renumbered in id order, isolated ones included, with the arcs (v, w) at
// them that keep(v, w) accepts. keep is asked only at in vertices, and
// there it must be symmetric and imply in(w); keep(_, w) = in(w) gives
// the subgraph in induces. Both must be safe for concurrent calls.
func Subgraph(g *Graph, in func(v int32) bool, keep func(v, w int32) bool) *Sub {
	n := g.NumVertices()
	// cnt[v] is 1 + v's kept arcs for an in vertex and 0 for any other, so
	// that the ranks count isolated in vertices too.
	cnt := make([]int32, n)
	par.For(n, func(i int) {
		v := int32(i)
		if !in(v) {
			return
		}
		d := int32(1)
		for _, w := range g.Neighbors(v) {
			if keep(v, w) {
				d++
			}
		}
		cnt[i] = d
	})
	return buildSub(g, cnt, 1, keep, true)
}

// buildSub builds the Sub of the vertices v with cnt[v] != 0, in id
// order, and of their arcs (v, w) with keep(v, w) == want, of which v has
// cnt[v] − base.
func buildSub(g *Graph, cnt []int32, base int32, keep func(v, w int32) bool, want bool) *Sub {
	tg, localID := renumber(cnt)
	deg := make([]int32, len(tg))
	par.For(len(tg), func(j int) { deg[j] = cnt[tg[j]] - base })
	off := par.ExclusiveSum32(deg)
	adj := fillEdges(g, tg, localID, off, keep, want)
	return &Sub{G: &Graph{off: off, adj: adj}, ToGlobal: tg}
}

// fillEdges copies, for local vertex j (global id tg[j], or j itself when
// tg is nil), the neighbours w with keep(v, w) == want into adjacency
// offsets off, renamed through localID (kept as is when localID is nil).
// A list that keeps every neighbour unrenamed is copied whole.
func fillEdges(g *Graph, tg, localID []int32, off []int64, keep func(v, w int32) bool, want bool) []int32 {
	m := len(off) - 1
	adj := make([]int32, off[m])
	par.For(m, func(j int) {
		v := int32(j)
		if tg != nil {
			v = tg[j]
		}
		p := off[j]
		nbrs := g.Neighbors(v)
		if localID == nil && off[j+1]-p == int64(len(nbrs)) {
			copy(adj[p:off[j+1]], nbrs)
			return
		}
		for _, w := range nbrs {
			if keep(v, w) == want {
				if localID != nil {
					w = localID[w]
				}
				adj[p] = w
				p++
			}
		}
	})
	return adj
}

// renumber ranks the vertices v with cnt[v] != 0: tg lists them in id
// order, and localID[v] is v's index in tg (set only for those vertices).
// A per-chunk count gives each chunk its first rank.
func renumber(cnt []int32) (tg, localID []int32) {
	n := len(cnt)
	first := make([]int, par.NumChunks(n)+1)
	par.RangeIdx(n, func(w, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if cnt[i] != 0 {
				c++
			}
		}
		first[w+1] = c
	})
	for w := 1; w < len(first); w++ {
		first[w] += first[w-1]
	}
	tg = make([]int32, first[len(first)-1])
	localID = make([]int32, n)
	par.RangeIdx(n, func(w, lo, hi int) {
		next := first[w]
		for i := lo; i < hi; i++ {
			if cnt[i] != 0 {
				localID[i] = int32(next)
				tg[next] = int32(i)
				next++
			}
		}
	})
	return tg, localID
}

// IdentitySub wraps g as a Sub whose local ids equal global ids.
func IdentitySub(g *Graph) *Sub {
	tg := make([]int32, g.NumVertices())
	par.Iota(tg)
	return &Sub{G: g, ToGlobal: tg}
}

// RelabelRandom returns an isomorphic copy of g with vertex ids permuted
// pseudo-randomly under the seed. Several of the paper's effects (GM's
// vain tendency, LMAX's id-weight chains) depend on vertex numbering
// following the graph's structure; relabeling removes that correlation, so
// the harness uses this to isolate ordering effects from structural ones.
func RelabelRandom(g *Graph, seed uint64) *Graph {
	n := g.NumVertices()
	perm := make([]int32, n)
	par.Iota(perm)
	// Fisher–Yates with the deterministic sequential RNG (construction
	// time, not a measured section).
	rng := par.NewRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	edges := g.Edges()
	out := make([]Edge, len(edges))
	par.For(len(edges), func(i int) {
		out[i] = Edge{perm[edges[i].U], perm[edges[i].V]}.Canon()
	})
	return FromEdges(n, out)
}
