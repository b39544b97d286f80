package graph

import (
	"fmt"

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

	// Local id of v within its part = rank of v among same-labeled vertices.
	// Computed with a per-chunk counting pass + prefix sums per label, so
	// ids stay monotone in global order.
	nc := par.NumChunks(n)
	counts := make([][]int64, nc) // counts[chunk][lbl]
	par.RangeIdx(n, func(w, lo, hi int) {
		c := make([]int64, k)
		for i := lo; i < hi; i++ {
			l := label[i]
			if l < 0 || int(l) >= k {
				panic(fmt.Sprintf("graph: label %d out of range [0,%d)", l, k))
			}
			c[l]++
		}
		counts[w] = c
	})
	partSize := make([]int64, k)
	for _, c := range counts {
		for l := 0; l < k; l++ {
			partSize[l] += c[l]
		}
	}
	// chunkBase[w][l] = number of label-l vertices before chunk w.
	chunkBase := make([][]int64, nc)
	running := make([]int64, k)
	for w := 0; w < nc; w++ {
		base := make([]int64, k)
		copy(base, running)
		chunkBase[w] = base
		for l := 0; l < k; l++ {
			running[l] += counts[w][l]
		}
	}
	localID := make([]int32, n)
	par.RangeIdx(n, func(w, lo, hi int) {
		next := make([]int64, k)
		copy(next, chunkBase[w])
		for i := lo; i < hi; i++ {
			l := label[i]
			localID[i] = int32(next[l])
			next[l]++
		}
	})

	// ToGlobal per part.
	toGlobal := make([][]int32, k)
	for l := 0; l < k; l++ {
		toGlobal[l] = make([]int32, partSize[l])
	}
	par.For(n, func(i int) {
		toGlobal[label[i]][localID[i]] = int32(i)
	})

	// Intra-part degrees and cross degrees.
	intraDeg := make([]int32, n)
	crossDeg := make([]int32, n)
	par.For(n, func(i int) {
		v := int32(i)
		l := label[i]
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

	parts = make([]*Sub, k)
	for l := 0; l < k; l++ {
		parts[l] = buildPart(g, label, int32(l), toGlobal[l], localID, intraDeg)
	}
	cross = buildCross(g, crossDeg, func(v, w int32) bool { return label[v] == label[w] })
	return parts, cross
}

// buildPart materializes the part whose vertices are tg (ascending global
// ids, renumbered by localID) and whose edges are those to neighbours w
// with label[w] == l; deg[v] counts v's such neighbours. PartitionByLabel
// and InducedSubgraph share it; the label test stays inline, since it runs
// once per arc.
func buildPart[L comparable](g *Graph, label []L, l L, tg, localID, deg []int32) *Sub {
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
// true, over every vertex id of g. keep must be symmetric and safe for
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
	cross = buildCross(g, crossDeg, keep)
	return kept, cross
}

// buildCross builds the edge-induced Sub of the edges keep rejects, from
// their per-vertex counts crossDeg.
func buildCross(g *Graph, crossDeg []int32, keep func(v, w int32) bool) *Sub {
	tg, localID := renumber(crossDeg)
	deg := make([]int32, len(tg))
	par.For(len(tg), func(j int) { deg[j] = crossDeg[tg[j]] })
	off := par.ExclusiveSum32(deg)
	adj := fillEdges(g, tg, localID, off, keep, false)
	return &Sub{G: &Graph{off: off, adj: adj}, ToGlobal: tg}
}

// fillEdges copies, for local vertex j (global id tg[j], or j itself when
// tg is nil), the neighbours w with keep(v, w) == want into adjacency
// offsets off, renamed through localID (kept as is when localID is nil).
func fillEdges(g *Graph, tg, localID []int32, off []int64, keep func(v, w int32) bool, want bool) []int32 {
	m := len(off) - 1
	adj := make([]int32, off[m])
	par.For(m, func(j int) {
		v := int32(j)
		if tg != nil {
			v = tg[j]
		}
		p := off[j]
		for _, w := range g.Neighbors(v) {
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

// renumber ranks the vertices v whose in[v] is not the zero value: tg
// lists them in id order, and localID[v] is v's index in tg (set only for
// those vertices). A per-chunk count gives each chunk its first rank, as
// in PartitionByLabel.
func renumber[T comparable](in []T) (tg, localID []int32) {
	var zero T
	n := len(in)
	first := make([]int, par.NumChunks(n)+1)
	par.RangeIdx(n, func(w, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if in[i] != zero {
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
			if in[i] != zero {
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

// InducedSubgraph materializes the subgraph induced by the vertices for
// which member is true. Vertices keep their relative order.
func InducedSubgraph(g *Graph, member []bool) *Sub {
	n := g.NumVertices()
	if len(member) != n {
		panic("graph: InducedSubgraph mask length mismatch")
	}
	tg, localID := renumber(member)
	deg := make([]int32, n)
	par.For(len(tg), func(j int) {
		var d int32
		for _, w := range g.Neighbors(tg[j]) {
			if member[w] {
				d++
			}
		}
		deg[tg[j]] = d
	})
	return buildPart(g, member, true, tg, localID, deg)
}
