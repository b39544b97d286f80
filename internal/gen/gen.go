// Package gen provides deterministic synthetic graph generators that stand
// in for the paper's University-of-Florida datasets (Table II). The module
// is offline, so each of the paper's six graph classes gets a generator
// tuned to reproduce the structural columns that drive the paper's results:
// average degree, the fraction of degree ≤ 2 vertices (%DEG2), the fraction
// of bridge edges (%BRIDGES), and the diameter class. See DESIGN.md §2 for
// the substitution argument.
//
// All generators are deterministic under a seed and return simple
// undirected graphs.
package gen

import (
	"cmp"
	"io"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// Kron generates a Kronecker/R-MAT graph with 2^scale vertices and about
// edgeFactor·2^scale undirected edges, the analog of the kron-g500
// instances (heavy-tailed degrees, tiny diameter, a large population of
// degree ≤ 2 vertices next to huge hubs, essentially no bridges at high
// edge factors). Uses the Graph500 R-MAT parameters a=0.57, b=0.19, c=0.19.
func Kron(scale int, edgeFactor int, seed uint64) *graph.Graph {
	n := 1 << uint(scale)
	m := n * edgeFactor
	edges := make([]graph.Edge, m)
	par.Range(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			edges[i] = kronEdge(scale, seed, int64(i))
		}
	})
	return graph.FromEdges(n, edges)
}

// kronEdge computes the i-th R-MAT edge for (scale, seed). Each edge is a
// pure function of its index, which is what lets Kron parallelize freely
// and KronStream reproduce the exact same edge sequence incrementally.
func kronEdge(scale int, seed uint64, i int64) graph.Edge {
	r := par.NewRNG(par.Hash64(seed, i))
	var u, v int
	for bit := 0; bit < scale; bit++ {
		p := r.Float64()
		switch {
		case p < 0.57: // a: top-left
		case p < 0.76: // b: top-right
			v |= 1 << uint(bit)
		case p < 0.95: // c: bottom-left
			u |= 1 << uint(bit)
		default: // d: bottom-right
			u |= 1 << uint(bit)
			v |= 1 << uint(bit)
		}
	}
	return graph.Edge{U: int32(u), V: int32(v)}
}

// KronStream is Kron as a graph.EdgeStream: it yields the identical edge
// sequence batch by batch without materializing the edge list, so
// graph.BuildBinaryExternal can write R-MAT instances far larger than
// memory. Batches are generated in parallel (each edge is independent).
type KronStream struct {
	scale int
	seed  uint64
	m     int64
	pos   int64
}

// NewKronStream returns the streaming form of Kron(scale, edgeFactor,
// seed): same vertex count, same edges, same order.
func NewKronStream(scale, edgeFactor int, seed uint64) *KronStream {
	return &KronStream{scale: scale, seed: seed, m: int64(edgeFactor) << uint(scale)}
}

// NumVertices reports 2^scale.
func (s *KronStream) NumVertices() int { return 1 << uint(s.scale) }

// NumEdges reports the total (pre-dedup) edge count of the stream.
func (s *KronStream) NumEdges() int64 { return s.m }

// Next fills buf with the next batch of edges.
func (s *KronStream) Next(buf []graph.Edge) (int, error) {
	k := int(min(int64(len(buf)), s.m-s.pos))
	base := s.pos
	par.Range(k, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i] = kronEdge(s.scale, s.seed, base+int64(i))
		}
	})
	s.pos += int64(k)
	if s.pos == s.m {
		return k, io.EOF
	}
	return k, nil
}

// RGG generates a random geometric graph: n points uniform in the unit
// square, an edge between points within distance radius. The analog of the
// rgg-n-2-* instances: locally dense, zero %DEG2, zero bridges, moderate
// uniform degrees. DegreeRadius returns the radius for a target average
// degree.
func RGG(n int, radius float64, seed uint64) *graph.Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	par.For(n, func(i int) {
		xs[i] = float64(par.Hash64(seed, int64(2*i))>>11) / (1 << 53)
		ys[i] = float64(par.Hash64(seed, int64(2*i+1))>>11) / (1 << 53)
	})
	// Number vertices in spatial (row-major cell) order, as the DIMACS rgg
	// generators do. The ordering matters: id-directed algorithms (GM's
	// lowest-id potential mate) then chain along the geometry, which is the
	// paper's documented vain-tendency pathology on the rgg instances.
	order := make([]int32, n)
	par.Iota(order)
	gridSide := int(1 / radius)
	if gridSide < 1 {
		gridSide = 1
	}
	cellKey := func(i int32) int64 {
		cx := int64(xs[i] * float64(gridSide))
		cy := int64(ys[i] * float64(gridSide))
		return cx*int64(gridSide) + cy
	}
	slices.SortFunc(order, func(a, b int32) int {
		if ka, kb := cellKey(a), cellKey(b); ka != kb {
			return cmp.Compare(ka, kb)
		}
		return cmp.Compare(xs[a], xs[b])
	})
	nx := make([]float64, n)
	ny := make([]float64, n)
	par.For(n, func(i int) {
		nx[i] = xs[order[i]]
		ny[i] = ys[order[i]]
	})
	xs, ys = nx, ny
	// Bucket grid with cell size = radius: neighbors lie in the 3×3 cells.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int) (int, int) {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	buckets := make([][]int32, cells*cells)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		buckets[cx*cells+cy] = append(buckets[cx*cells+cy], int32(i))
	}
	r2 := radius * radius
	nc := par.NumChunks(n)
	bufs := make([][]graph.Edge, nc)
	par.RangeIdx(n, func(w, lo, hi int) {
		var out []graph.Edge
		for i := lo; i < hi; i++ {
			cx, cy := cellOf(i)
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					bx, by := cx+dx, cy+dy
					if bx < 0 || bx >= cells || by < 0 || by >= cells {
						continue
					}
					for _, j := range buckets[bx*cells+by] {
						if int32(i) >= j {
							continue
						}
						ddx := xs[i] - xs[j]
						ddy := ys[i] - ys[j]
						if ddx*ddx+ddy*ddy <= r2 {
							out = append(out, graph.Edge{U: int32(i), V: j})
						}
					}
				}
			}
		}
		bufs[w] = out
	})
	var edges []graph.Edge
	for _, b := range bufs {
		edges = append(edges, b...)
	}
	return graph.FromEdges(n, edges)
}

// DegreeRadius returns the RGG radius that yields approximately the target
// average degree on n uniform points (avg degree ≈ nπr²).
func DegreeRadius(n int, avgDegree float64) float64 {
	return math.Sqrt(avgDegree / (float64(n) * math.Pi))
}

// Road generates a road-network analog: a 2D lattice whose edges are
// subdivided into chains of 1..maxSeg segments. Subdivision creates long
// degree-2 chains (germany-osm has 82% deg ≤ 2), a large diameter (the
// BRIDGE decomposition's BFS bottleneck), and pendant spurs hanging off
// fraction spurFrac of the lattice nodes contribute bridges (osm ≈ 20%).
func Road(rows, cols, maxSeg int, spurFrac float64, seed uint64) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	next := int32(rows * cols)
	id := func(i, j int) int32 { return int32(i*cols + j) }
	rng := par.NewRNG(seed)
	subdivide := func(u, v int32) {
		segs := 1 + rng.Intn(maxSeg)
		prev := u
		for s := 1; s < segs; s++ {
			b.SetNumVertices(int(next) + 1)
			b.AddEdge(prev, next)
			prev = next
			next++
		}
		b.AddEdge(prev, v)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				subdivide(id(i, j), id(i, j+1))
			}
			if i+1 < rows {
				subdivide(id(i, j), id(i+1, j))
			}
		}
	}
	// Pendant spurs: dead-end streets; every spur edge is a bridge.
	spurs := int(float64(rows*cols) * spurFrac)
	for s := 0; s < spurs; s++ {
		anchor := int32(rng.Intn(rows * cols))
		length := 1 + rng.Intn(maxSeg)
		prev := anchor
		for t := 0; t < length; t++ {
			b.SetNumVertices(int(next) + 1)
			b.AddEdge(prev, next)
			prev = next
			next++
		}
	}
	return b.Build()
}

// PrefAttach generates a preferential-attachment graph: each new vertex
// attaches to outDeg existing vertices chosen proportionally to degree.
// The analog of the citation and web classes (heavy-ish tail, small
// diameter, moderate %DEG2 from late-arriving low-degree vertices).
func PrefAttach(n, outDeg int, seed uint64) *graph.Graph {
	if outDeg < 1 {
		outDeg = 1
	}
	b := graph.NewBuilder(n)
	rng := par.NewRNG(seed)
	// targets holds one entry per edge endpoint: sampling uniformly from it
	// is sampling proportionally to degree.
	targets := make([]int32, 0, 2*n*outDeg)
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		d := outDeg
		if d > v {
			d = v
		}
		for j := 0; j < d; j++ {
			w := targets[rng.Intn(len(targets))]
			b.AddEdge(int32(v), w)
			targets = append(targets, w)
		}
		for j := 0; j < d; j++ {
			targets = append(targets, int32(v))
		}
	}
	return b.Build()
}

// PrefAttachVar is PrefAttach with per-vertex out-degree drawn uniformly
// from [minOut, maxOut]. The low end produces the population of degree ≤ 2
// vertices that citation and web graphs carry (Cit-Patents: 28% DEG2,
// web-Google: 31%) while the attachment rule still grows hubs.
func PrefAttachVar(n, minOut, maxOut int, seed uint64) *graph.Graph {
	if minOut < 1 {
		minOut = 1
	}
	if maxOut < minOut {
		maxOut = minOut
	}
	b := graph.NewBuilder(n)
	rng := par.NewRNG(seed)
	targets := make([]int32, 0, n*(minOut+maxOut))
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		d := minOut + rng.Intn(maxOut-minOut+1)
		if d > v {
			d = v
		}
		for j := 0; j < d; j++ {
			w := targets[rng.Intn(len(targets))]
			b.AddEdge(int32(v), w)
			targets = append(targets, w)
		}
		for j := 0; j < d; j++ {
			targets = append(targets, int32(v))
		}
	}
	return b.Build()
}

// Community generates a planted-partition graph: n vertices in communities
// of ~commSize; each vertex initiates between 1 and 2·inDeg−1 (average
// inDeg) intra-community edges and outDeg inter-community edges. The spread
// of initiation counts leaves a realistic fraction of low-degree authors
// next to well-connected ones, the analog of the collaboration class
// (coAuthorsCiteseer: 29% DEG2, avg degree ≈ 7).
func Community(n, commSize, inDeg, outDeg int, seed uint64) *graph.Graph {
	if commSize < 2 {
		commSize = 2
	}
	if inDeg < 1 {
		inDeg = 1
	}
	b := graph.NewBuilder(n)
	rng := par.NewRNG(seed)
	commOf := func(v int) int { return v / commSize }
	commLo := func(c int) int { return c * commSize }
	commHi := func(c int) int {
		hi := (c + 1) * commSize
		if hi > n {
			hi = n
		}
		return hi
	}
	for v := 0; v < n; v++ {
		c := commOf(v)
		lo, hi := commLo(c), commHi(c)
		d := 1 + rng.Intn(2*inDeg-1)
		for j := 0; j < d; j++ {
			w := lo + rng.Intn(hi-lo)
			b.AddEdge(int32(v), int32(w))
		}
		for j := 0; j < outDeg; j++ {
			b.AddEdge(int32(v), int32(rng.Intn(n)))
		}
	}
	return b.Build()
}

// Banded generates a banded-matrix graph: vertex i connects to perRow
// random vertices within the band [i-band, i+band], plus pendant chains on
// a chainFrac fraction of vertices. The analog of the numerical class
// (c-73: band structure with ~49% deg ≤ 2 and ~15% bridges).
func Banded(n, band, perRow int, chainFrac float64, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	rng := par.NewRNG(seed)
	for v := 0; v < n; v++ {
		for j := 0; j < perRow; j++ {
			off := rng.Intn(2*band+1) - band
			w := v + off
			if w >= 0 && w < n && w != v {
				b.AddEdge(int32(v), int32(w))
			}
		}
	}
	next := int32(n)
	chains := int(float64(n) * chainFrac)
	for s := 0; s < chains; s++ {
		anchor := int32(rng.Intn(n))
		length := 1 + rng.Intn(3)
		prev := anchor
		for t := 0; t < length; t++ {
			b.SetNumVertices(int(next) + 1)
			b.AddEdge(prev, next)
			prev = next
			next++
		}
	}
	return b.Build()
}

// LP generates an analog of the lp1 linear-programming constraint graph: a
// bipartite-ish structure that is almost a forest — chains and stars with
// >90% of vertices of degree ≤ 2 and >90% of edges bridges — plus a small
// cyclic core so the graph is not a pure tree.
func LP(n int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	rng := par.NewRNG(seed)
	// A small dense core of star centers (~2% of vertices).
	core := n / 50
	if core < 2 {
		core = 2
	}
	// Spread the remaining vertices as long chains (length 1..48) hung on
	// random core vertices, emulating chained constraint rows; the long
	// degree-2 paths are what give lp1 its %DEG2 = 94 and %BRIDGES = 93.
	v := core
	for v < n {
		anchor := rng.Intn(core)
		length := 1 + rng.Intn(48)
		prev := int32(anchor)
		for t := 0; t < length && v < n; t++ {
			b.AddEdge(prev, int32(v))
			prev = int32(v)
			v++
		}
	}
	// Sparse cycles among core vertices (non-bridge edges, keeps %BRIDGES
	// near but below 100).
	for i := 0; i < core; i++ {
		b.AddEdge(int32(i), int32((i+1)%core))
	}
	b.SetNumVertices(n)
	return b.Build()
}

// Web generates an analog of the webbase crawl class: preferential
// attachment hubs with long pendant chains (webbase-1M: 87% deg ≤ 2, 38%
// bridges, avg degree ≈ 4).
func Web(n int, seed uint64) *graph.Graph {
	hubPart := n / 4
	if hubPart < 10 {
		hubPart = 10
	}
	core := PrefAttach(hubPart, 5, seed)
	return PadChains(core, n-hubPart, 30, par.Hash64(seed, 1))
}

// PadChains appends extra pendant chain vertices (length 1..maxLen each) to
// random vertices of g. Real-world collaboration/citation/web graphs carry
// a sizeable population of degree ≤ 2 vertices (Table II's %DEG2 column)
// that pure attachment models underproduce; padding restores it, and every
// padded edge is a bridge.
func PadChains(g *graph.Graph, extra, maxLen int, seed uint64) *graph.Graph {
	if extra <= 0 {
		return g
	}
	if maxLen < 1 {
		maxLen = 1
	}
	base := g.NumVertices()
	b := graph.NewBuilder(base + extra)
	b.AddEdges(g.Edges())
	rng := par.NewRNG(seed)
	next := int32(base)
	for int(next) < base+extra {
		anchor := int32(rng.Intn(base))
		length := 1 + rng.Intn(maxLen)
		prev := anchor
		for t := 0; t < length && int(next) < base+extra; t++ {
			b.AddEdge(prev, next)
			prev = next
			next++
		}
	}
	return b.Build()
}
