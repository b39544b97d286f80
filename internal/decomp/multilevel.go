package decomp

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// Multilevel partitioning parameters: parts may weigh up to (1+ε)·n/k,
// and each uncoarsening level gets this many boundary-refinement sweeps.
// Coarsening stops once a level has at most max(32·k, 256) vertices.
const (
	multilevelEpsilon      = 0.1
	multilevelRefinePasses = 4
)

// Multilevel partitions g into k parts with a matching-based multilevel
// k-way partitioner (Her & Pellegrini style) and materializes the parts and
// cross subgraph in the RAND shape. It is the stand-in for the PMETIS
// comparison the paper's Remark 1 excludes because partitioning alone costs
// more than the symmetry-breaking baselines — the harness's remark1
// experiment measures exactly that with this decomposition.
//
// The partitioner coarsens by repeated heavy-edge maximal matching and
// contraction, partitions the coarsest level by balanced BFS growing, then
// uncoarsens with greedy boundary refinement. Coarse levels carry vertex
// weights (cluster sizes) and edge weights (merged multiplicities), so
// balance and cut are measured against the original graph throughout.
// Rounds is the number of coarsening levels built.
func Multilevel(g *graph.Graph, k int, seed uint64) *Result {
	if k < 1 {
		panic(fmt.Sprintf("decomp: Multilevel with k=%d", k))
	}
	r := &Result{Technique: TechMultilevel}
	n := g.NumVertices()
	label := make([]int32, n)
	switch {
	case k == 1 || n == 0:
		// One part: every label stays 0.
	case k >= n:
		par.Iota(label) // one vertex per part
	default:
		levels := []*wgraph{fromGraph(g)}
		var maps [][]int32 // maps[l][v] = coarse vertex of v at level l+1
		for levels[len(levels)-1].n() > max(32*k, 256) {
			coarse, m, shrunk := contract(levels[len(levels)-1], seed+uint64(len(levels)))
			if !shrunk {
				break // matching found almost nothing; stop coarsening
			}
			levels = append(levels, coarse)
			maps = append(maps, m)
		}
		r.Rounds = len(maps)

		coarsest := levels[len(levels)-1]
		part := initialPartition(coarsest, k, seed)
		refine(coarsest, part, k)
		for l := len(maps) - 1; l >= 0; l-- {
			finer := levels[l]
			proj := make([]int32, finer.n())
			par.For(finer.n(), func(v int) { proj[v] = part[maps[l][v]] })
			part = proj
			refine(finer, part, k)
		}
		label = part
	}
	r.Parts, r.Cross = graph.PartitionByLabel(g, label, k)
	r.Label = label
	return r
}

// wgraph is a weighted multigraph level: CSR with per-arc weights and
// per-vertex weights.
type wgraph struct {
	off   []int64
	adj   []int32
	wadj  []int64 // arc weights (merged multiplicities)
	wvtx  []int64 // vertex weights (original vertices represented)
	total int64   // sum of vertex weights
}

func (w *wgraph) n() int { return len(w.wvtx) }

// fromGraph converts a CSR graph into a unit-weight level.
func fromGraph(g *graph.Graph) *wgraph {
	n := g.NumVertices()
	w := &wgraph{
		off:  make([]int64, n+1),
		adj:  make([]int32, g.NumArcs()),
		wadj: make([]int64, g.NumArcs()),
		wvtx: make([]int64, n),
	}
	var pos int64
	for v := 0; v < n; v++ {
		w.off[v] = pos
		for _, u := range g.Neighbors(int32(v)) {
			w.adj[pos] = u
			w.wadj[pos] = 1
			pos++
		}
		w.wvtx[v] = 1
	}
	w.off[n] = pos
	w.total = int64(n)
	return w
}

// contract matches the level (heavy-edge random matching) and builds the
// coarse level. Reports whether the level shrank meaningfully.
func contract(cur *wgraph, seed uint64) (*wgraph, []int32, bool) {
	n := cur.n()
	mate := heavyEdgeMatch(cur, seed)

	// Coarse ids: matched pair → one vertex (the smaller endpoint leads).
	coarseOf := make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		w := mate[v]
		if w >= 0 && int(w) < v {
			coarseOf[v] = coarseOf[w]
			continue
		}
		coarseOf[v] = next
		next++
	}
	if int(next) > n*9/10 {
		return nil, nil, false // <10% shrink: not worth another level
	}

	// Aggregate coarse adjacency (hash-free: sort per-vertex pairs).
	type arc struct {
		to int32
		w  int64
	}
	coarseAdj := make([][]arc, next)
	for v := 0; v < n; v++ {
		cv := coarseOf[v]
		for i := cur.off[v]; i < cur.off[v+1]; i++ {
			cu := coarseOf[cur.adj[i]]
			if cu == cv {
				continue // contracted pair's internal edge disappears
			}
			coarseAdj[cv] = append(coarseAdj[cv], arc{cu, cur.wadj[i]})
		}
	}
	out := &wgraph{
		off:  make([]int64, next+1),
		wvtx: make([]int64, next),
	}
	for v := 0; v < n; v++ {
		out.wvtx[coarseOf[v]] += cur.wvtx[v]
	}
	out.total = cur.total
	var pos int64
	for cv := int32(0); cv < next; cv++ {
		out.off[cv] = pos
		as := coarseAdj[cv]
		slices.SortFunc(as, func(a, b arc) int { return cmp.Compare(a.to, b.to) })
		for i := 0; i < len(as); {
			j := i
			var wsum int64
			for j < len(as) && as[j].to == as[i].to {
				wsum += as[j].w
				j++
			}
			out.adj = append(out.adj, as[i].to)
			out.wadj = append(out.wadj, wsum)
			pos++
			i = j
		}
	}
	out.off[next] = pos
	return out, coarseOf, true
}

// heavyEdgeMatch computes a matching preferring heavy edges: every free
// vertex proposes to its heaviest free neighbor (symmetric hash
// tie-break, so the globally heaviest free edge always matches — each
// round makes progress deterministically); repeat until no free vertex
// has a free neighbor. mate[v] = partner or -1.
func heavyEdgeMatch(w *wgraph, seed uint64) []int32 {
	n := w.n()
	mate := make([]int32, n)
	par.Fill(mate, int32(-1))
	prop := make([]int32, n)
	active := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if w.off[v] < w.off[v+1] {
			active = append(active, int32(v))
		}
	}
	for len(active) > 0 {
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				best := int32(-1)
				var bestW int64 = -1
				var bestTie uint64
				for j := w.off[v]; j < w.off[v+1]; j++ {
					u := w.adj[j]
					if mate[u] != -1 {
						continue
					}
					tie := par.Hash2(seed, int64(v), int64(u))
					if w.wadj[j] > bestW || (w.wadj[j] == bestW && tie > bestTie) {
						best, bestW, bestTie = u, w.wadj[j], tie
					}
				}
				prop[v] = best
			}
		})
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				u := prop[v]
				if u >= 0 && v < u && prop[u] == v {
					mate[v], mate[u] = u, v
				}
			}
		})
		active = par.Filter(active, func(v int32) bool {
			return mate[v] == -1 && prop[v] != -1
		})
	}
	return mate
}

// initialPartition grows k balanced regions by round-robin BFS from
// hash-spread seeds; any vertex left unreached joins the lightest part.
func initialPartition(w *wgraph, k int, seed uint64) []int32 {
	n := w.n()
	part := make([]int32, n)
	par.Fill(part, int32(-1))
	capacity := (w.total*(100+int64(multilevelEpsilon*100)))/int64(k)/100 + 1
	weights := make([]int64, k)
	queues := make([][]int32, k)
	for p := 0; p < k; p++ {
		s := int32(par.HashRange(seed, int64(p)*7919, n))
		for part[s] != -1 { // seed collision: walk forward
			s = (s + 1) % int32(n)
		}
		part[s] = int32(p)
		weights[p] += w.wvtx[s]
		queues[p] = append(queues[p], s)
	}
	active := k
	for active > 0 {
		active = 0
		for p := 0; p < k; p++ {
			if len(queues[p]) == 0 || weights[p] >= capacity {
				continue
			}
			active++
			v := queues[p][0]
			queues[p] = queues[p][1:]
			for i := w.off[v]; i < w.off[v+1]; i++ {
				u := w.adj[i]
				if part[u] != -1 || weights[p]+w.wvtx[u] > capacity {
					continue
				}
				part[u] = int32(p)
				weights[p] += w.wvtx[u]
				queues[p] = append(queues[p], u)
			}
		}
	}
	// Leftovers (unreached or capacity-blocked) go to the lightest part.
	for v := 0; v < n; v++ {
		if part[v] != -1 {
			continue
		}
		best := 0
		for p := 1; p < k; p++ {
			if weights[p] < weights[best] {
				best = p
			}
		}
		part[v] = int32(best)
		weights[best] += w.wvtx[v]
	}
	return part
}

// refine runs greedy boundary sweeps: move a vertex to the neighboring part
// with the largest connection-weight gain when balance allows.
func refine(w *wgraph, part []int32, k int) {
	n := w.n()
	capacity := int64(float64(w.total) * (1 + multilevelEpsilon) / float64(k))
	weights := make([]int64, k)
	for v := 0; v < n; v++ {
		weights[part[v]] += w.wvtx[v]
	}
	conn := make([]int64, k) // scratch: connection weight to each part
	for pass := 0; pass < multilevelRefinePasses; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			home := part[v]
			for p := range conn {
				conn[p] = 0
			}
			boundary := false
			for i := w.off[v]; i < w.off[v+1]; i++ {
				p := part[w.adj[i]]
				conn[p] += w.wadj[i]
				if p != home {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			best, bestGain := home, int64(0)
			for p := 0; p < k; p++ {
				if int32(p) == home {
					continue
				}
				gain := conn[p] - conn[home]
				if gain > bestGain && weights[p]+w.wvtx[v] <= capacity {
					best, bestGain = int32(p), gain
				}
			}
			if best != home {
				weights[home] -= w.wvtx[v]
				weights[best] += w.wvtx[v]
				part[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
