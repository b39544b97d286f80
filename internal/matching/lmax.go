package matching

import (
	"sync/atomic"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/trace"
)

// LMAX computes a maximal matching with the paper's GPU baseline
// (Algorithm LMAX, after Birn et al.): every live vertex finds its adjacent
// heaviest live edge; if the two endpoints pick each other the edge enters
// the matching, and matched vertices leave the graph. The process repeats
// until no live edge remains.
//
// The inputs are unweighted, so the edge weight is synthesized from the
// endpoint ids: w(u,v) = u+v. Two edges at the same vertex v compare as
// their other endpoints do, and neighbour ids are distinct, so every
// vertex's heaviest live edge goes to its highest-id unmatched neighbour
// and no tie-break is needed; seed is unused and kept for API stability.
// Id-derived weights are what make the paper's remark hold that
// "Algorithms GM and LMAX follow a similar model in finding potential
// mates and matches ... a similar trend in the performance": on instances
// whose vertex numbering follows the geometry (rgg, banded matrices) the
// id gradient produces the same long resolution chains that give GM its
// vain tendency.
//
// Each vertex keeps a cursor into its sorted adjacency list that only
// moves backward: a matched vertex never becomes unmatched, so the
// highest-id unmatched neighbour never moves up, and the total scan work
// is O(m) plus O(n) per round instead of O(m) per round. A pick changes
// only when its target is matched, so kernel 1 reads a vertex's adjacency
// only in the round after that happens. Kernels execute
// on the bsp virtual manycore machine; the launch counter advances by
// three per round (propose, handshake, retire), mirroring the kernel
// structure of the CUDA implementation.
func LMAX(g *graph.Graph, machine *bsp.Machine, seed uint64) (*Matching, Stats) {
	return lmax(g, machine, nil)
}

// lmax is LMAX attributing its launches and per-round matched and
// frontier series to sp.
//
//lint:hotpath
func lmax(g *graph.Graph, machine *bsp.Machine, sp *trace.Span) (*Matching, Stats) {
	launch := machine.In(sp)
	n := g.NumVertices()
	m := NewMatching(n)
	var st Stats
	mate := m.Mate
	cand := make([]int32, n)
	cur := make([]int32, n) // per-vertex backward adjacency cursor
	retired := make([]bool, n)

	// As in the standard GPU implementations, every round launches kernels
	// over the full vertex array with a retirement flag check — no live-set
	// compaction. A decomposed phase handed a sparser graph therefore wins
	// by needing fewer full sweeps.
	remaining := int64(0)
	for v := 0; v < n; v++ {
		ns := g.Neighbors(int32(v))
		d := int32(len(ns))
		cur[v] = d - 1
		if d > 0 {
			cand[v] = ns[d-1]
			remaining++
		} else {
			cand[v] = Unmatched
			retired[v] = true
		}
	}

	var matched, droppedOut atomic.Int64
	for remaining > 0 {
		st.Rounds++
		// Kernel 1: each live vertex picks its heaviest live edge, the one
		// to its highest-id unmatched neighbour. Only kernel 2 writes mate,
		// in a separate launch, so the cursor sees a fixed mate array. A
		// live vertex's pick is never Unmatched, and while it stays
		// unmatched it is still the highest, so only a vertex whose pick
		// was just matched moves its cursor.
		launch(n, func(lo, hi int) {
			for v := int32(lo); v < int32(hi); v++ {
				if retired[v] || mate[cand[v]] == Unmatched {
					continue
				}
				ns := g.Neighbors(v)
				c := cur[v]
				for c >= 0 && mate[ns[c]] != Unmatched {
					c--
				}
				cur[v] = c
				if c >= 0 {
					cand[v] = ns[c]
				} else {
					cand[v] = Unmatched
				}
			}
		})
		// Kernel 2: handshake on mutual local maxima.
		launch(n, func(lo, hi int) {
			for v := int32(lo); v < int32(hi); v++ {
				if retired[v] {
					continue
				}
				w := cand[v]
				if w != Unmatched && v < w && cand[w] == v {
					mate[v] = w
					mate[w] = v
					matched.Add(1)
				}
			}
		})
		// Kernel 3: retirement (vertices that matched or ran out of live
		// neighbors leave the graph).
		droppedOut.Store(0)
		launch(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if retired[v] {
					continue
				}
				if mate[v] != Unmatched || cand[v] == Unmatched {
					retired[v] = true
					droppedOut.Add(1)
				}
			}
		})
		// With sorted lists the highest-id live vertex and its pick always
		// handshake, so every round retires someone; a round that retires
		// no one would repeat forever.
		if droppedOut.Load() == 0 {
			panic(errStalled)
		}
		remaining -= droppedOut.Load()
		st.PerRound = append(st.PerRound, matched.Load())
		sp.Append("matched", matched.Load())
		sp.Append("frontier", remaining)
	}
	st.Matched = matched.Load()
	return m, st
}

// LMAXSolver returns LMAX on machine as an Algorithm; seed is unused, as
// in LMAX.
func LMAXSolver(machine *bsp.Machine, seed uint64) Algorithm {
	return func(g *graph.Graph, sp *trace.Span) (*Matching, Stats) {
		return lmax(g, machine, sp)
	}
}
