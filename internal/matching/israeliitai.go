package matching

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// IsraeliItai computes a maximal matching with the randomized two-phase
// algorithm of Israeli and Itai (the paper's reference [17], surveyed in
// §III-A): every round, each free vertex proposes to a uniformly random
// free neighbor; a vertex receiving proposals accepts one; each
// accepted pair flips one coin per endpoint and the edge enters the
// matching when proposer and acceptor agree (breaking the symmetry of
// mutual chains). Expected O(log n) rounds.
//
// IsraeliItai is not one of the paper's measured baselines; it exists for
// the matching-baselines comparison (it has no vain tendency, unlike GM,
// which makes the ordering pathology visible by contrast).
func IsraeliItai(g *graph.Graph, seed uint64) (*Matching, Stats) {
	n := g.NumVertices()
	m := NewMatching(n)
	var st Stats
	mate := m.Mate
	prop := make([]int32, n)   // this round's proposal target
	accept := make([]int32, n) // accepted proposer per target

	active := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if g.Degree(int32(v)) > 0 {
			active = append(active, int32(v))
		}
	}

	var matched atomic.Int64
	for len(active) > 0 {
		st.Rounds++
		roundSeed := par.Hash64(seed, int64(st.Rounds))
		// Phase 1: propose to a random free neighbor (or retire when no
		// free neighbor remains).
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				ns := g.Neighbors(v)
				free := 0
				for _, w := range ns {
					if mate[w] == Unmatched {
						free++
					}
				}
				if free == 0 {
					prop[v] = Unmatched
					continue
				}
				pick := par.HashRange(roundSeed, int64(v), free)
				for _, w := range ns {
					if mate[w] != Unmatched {
						continue
					}
					if pick == 0 {
						prop[v] = w
						break
					}
					pick--
				}
				accept[v] = Unmatched
			}
		})
		// Phase 2: each proposal target accepts its lowest-id proposer
		// this round (scanning its neighborhood keeps the pass lock free).
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				best := Unmatched
				for _, w := range g.Neighbors(v) {
					if mate[w] == Unmatched && prop[w] == v {
						best = w
						break // sorted adjacency: first hit is lowest id
					}
				}
				accept[v] = best
			}
		})
		// Phase 3: coin flip — the edge (w → v) matches when w's coin is
		// heads and v's is tails, killing symmetric chains in expectation.
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				w := accept[v]
				if w == Unmatched {
					continue
				}
				headsW := par.Hash64(roundSeed^0xbeef, int64(w))&1 == 1
				tailsV := par.Hash64(roundSeed^0xbeef, int64(v))&1 == 0
				if headsW && tailsV {
					// v accepts w: both endpoints written from v's side;
					// w proposed only to v this round and v accepted only
					// w, so the pair is private to this iteration.
					mate[v] = w
					mate[w] = v
					matched.Add(1)
				}
			}
		})
		active = par.Filter(active, func(v int32) bool {
			return mate[v] == Unmatched && prop[v] != Unmatched
		})
	}
	st.Matched = matched.Load()
	return m, st
}
