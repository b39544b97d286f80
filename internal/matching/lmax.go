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
// endpoint ids (w(u,v) = u+v, ties broken by a symmetric hash of (seed, u,
// v) and then by ids). Id-derived weights are what make the paper's remark
// hold that "Algorithms GM and LMAX follow a similar model in finding
// potential mates and matches ... a similar trend in the performance": on
// instances whose vertex numbering follows the geometry (rgg, banded
// matrices) the id gradient produces the same long resolution chains that
// give GM its vain tendency. Kernels execute on the bsp virtual manycore
// machine; the launch counter advances by three per round (propose,
// handshake, retire), mirroring the kernel structure of the CUDA
// implementation.
func LMAX(g *graph.Graph, machine *bsp.Machine, seed uint64) (*Matching, Stats) {
	return lmax(g, machine, seed, nil)
}

// lmax is LMAX attributing its launches and per-round matched and
// frontier series to sp.
func lmax(g *graph.Graph, machine *bsp.Machine, seed uint64, sp *trace.Span) (*Matching, Stats) {
	launch := machine.In(sp)
	n := g.NumVertices()
	m := NewMatching(n)
	var st Stats
	mate := m.Mate
	cand := make([]int32, n)
	retired := make([]bool, n)

	// As in the standard GPU implementations, every round launches kernels
	// over the full vertex array with a retirement flag check — no live-set
	// compaction. A decomposed phase handed a sparser graph therefore wins
	// by needing fewer full sweeps.
	remaining := int64(0)
	for v := 0; v < n; v++ {
		if g.Degree(int32(v)) > 0 {
			remaining++
		} else {
			retired[v] = true
		}
	}

	// The id-derived weight w({v,a}) = v+a reduces, when comparing two
	// edges at the same vertex, to comparing the neighbor ids — which are
	// distinct, so every vertex's local maximum is unique and no tie-break
	// is needed. (seed is retained in the signature for API stability; id
	// weights need no randomness.)
	_ = seed

	var matched, droppedOut atomic.Int64
	for remaining > 0 {
		st.Rounds++
		// Kernel 1: each live vertex picks its heaviest live edge.
		launch(n, func(tid int) {
			v := int32(tid)
			if retired[v] {
				return
			}
			best := Unmatched
			for _, w := range g.Neighbors(v) {
				if mate[w] != Unmatched {
					continue
				}
				if w > best {
					best = w
				}
			}
			cand[v] = best
		})
		// Kernel 2: handshake on mutual local maxima.
		launch(n, func(tid int) {
			v := int32(tid)
			if retired[v] {
				return
			}
			w := cand[v]
			if w != Unmatched && v < w && cand[w] == v {
				mate[v] = w
				mate[w] = v
				matched.Add(1)
			}
		})
		// Kernel 3: retirement (vertices that matched or ran out of live
		// neighbors leave the graph).
		droppedOut.Store(0)
		launch(n, func(tid int) {
			v := int32(tid)
			if retired[v] {
				return
			}
			if mate[v] != Unmatched || cand[v] == Unmatched {
				retired[v] = true
				droppedOut.Add(1)
			}
		})
		remaining -= droppedOut.Load()
		st.PerRound = append(st.PerRound, matched.Load())
		sp.Append("matched", matched.Load())
		sp.Append("frontier", remaining)
	}
	st.Matched = matched.Load()
	return m, st
}

// LMAXSolver returns LMAX with the machine and seed bound, as an Algorithm.
func LMAXSolver(machine *bsp.Machine, seed uint64) Algorithm {
	return func(g *graph.Graph, sp *trace.Span) (*Matching, Stats) {
		return lmax(g, machine, seed, sp)
	}
}
