package matching

import (
	"math/bits"
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
// only in the round after that happens. Kernels execute on the bsp
// virtual manycore machine; the launch counter advances by three per
// round (propose, handshake, retire), mirroring the kernel structure of
// the CUDA implementation. Every launch covers all n threads, and a
// retired thread costs one bit of a live bitset.
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
	cur := make([]int32, n)           // per-vertex backward adjacency cursor
	live := make([]uint64, (n+63)/64) // bit v: v has not retired

	// As in the standard GPU implementations, every round launches kernels
	// over the full vertex array with a retirement check — no live-set
	// compaction. The check is one bit of a live word: a chunk walks the
	// set bits of the words it covers, so a retired thread costs a bit,
	// as a warp of retired threads exits after one flag load. A decomposed
	// phase handed a sparser graph therefore wins by needing fewer sweeps.
	remaining := int64(0)
	for v := 0; v < n; v++ {
		ns := g.Neighbors(int32(v))
		d := int32(len(ns))
		cur[v] = d - 1
		if d > 0 {
			cand[v] = ns[d-1]
			live[v>>6] |= 1 << uint(v&63)
			remaining++
		} else {
			cand[v] = Unmatched
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
			for i := lo >> 6; i<<6 < hi; i++ {
				for word := atomic.LoadUint64(&live[i]) & chunkBits(i, lo, hi); word != 0; word &= word - 1 {
					v := int32(i<<6 | bits.TrailingZeros64(word))
					if mate[cand[v]] == Unmatched {
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
			}
		})
		// Kernel 2: handshake on mutual local maxima.
		launch(n, func(lo, hi int) {
			var k int64
			for i := lo >> 6; i<<6 < hi; i++ {
				for word := atomic.LoadUint64(&live[i]) & chunkBits(i, lo, hi); word != 0; word &= word - 1 {
					v := int32(i<<6 | bits.TrailingZeros64(word))
					w := cand[v]
					if w != Unmatched && v < w && cand[w] == v {
						mate[v] = w
						mate[w] = v
						k++
					}
				}
			}
			if k > 0 {
				matched.Add(k)
			}
		})
		// Kernel 3: retirement (vertices that matched or ran out of live
		// neighbors leave the graph). A chunk boundary can split a word,
		// so each word's retiring bits are cleared with a CAS loop.
		droppedOut.Store(0)
		launch(n, func(lo, hi int) {
			var k int64
			for i := lo >> 6; i<<6 < hi; i++ {
				var gone uint64
				for word := atomic.LoadUint64(&live[i]) & chunkBits(i, lo, hi); word != 0; word &= word - 1 {
					b := bits.TrailingZeros64(word)
					if v := i<<6 | b; mate[v] != Unmatched || cand[v] == Unmatched {
						gone |= 1 << uint(b)
					}
				}
				if gone == 0 {
					continue
				}
				for {
					old := atomic.LoadUint64(&live[i])
					if atomic.CompareAndSwapUint64(&live[i], old, old&^gone) {
						break
					}
				}
				k += int64(bits.OnesCount64(gone))
			}
			if k > 0 {
				droppedOut.Add(k)
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

// chunkBits masks word i of a bitset over [0, n) to the bits of [lo, hi),
// the part of the word that a kernel chunk owns.
func chunkBits(i, lo, hi int) uint64 {
	mask := ^uint64(0)
	if base := i << 6; base < lo {
		mask <<= uint(lo - base)
	}
	if end := i<<6 + 64; end > hi {
		mask &= ^uint64(0) >> uint(end-hi)
	}
	return mask
}

// LMAXSolver returns LMAX on machine as an Algorithm.
func LMAXSolver(machine *bsp.Machine) Algorithm {
	return func(g *graph.Graph, sp *trace.Span) (*Matching, Stats) {
		return lmax(g, machine, sp)
	}
}
