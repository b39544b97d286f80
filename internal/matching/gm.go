package matching

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// GM computes a maximal matching with the paper's multicore CPU baseline:
// every unmatched vertex proposes to its lowest-id unmatched neighbor (the
// "potential mate"); mutual proposals become matched edges; the round
// repeats on the surviving vertices. This is the implementation the paper
// describes for Algorithm GM and it deliberately exhibits the paper's
// "vain tendency": a long chain of proposals yields only one matched edge
// per round, so instances like rgg need thousands of rounds.
//
// Each round is two passes over the active list (see handshake): settle
// matches the mutual proposals, advance compacts the survivors into the
// next list and updates their proposals in place. A proposal changes only
// when its target is taken, so only those vertices propose again. Each
// vertex keeps a cursor into its sorted adjacency list that only moves
// forward (matched-ness is monotone), so the total scan work is O(m)
// plus O(active) per round.
func GM(g *graph.Graph) (*Matching, Stats) { return gm(g, nil) }

// gm is GM appending its per-round matched and frontier series to sp.
func gm(g *graph.Graph, sp *trace.Span) (*Matching, Stats) {
	cur := make([]int32, g.NumVertices()) // per-vertex adjacency cursor
	return handshake(g, func(v int32, mate []int32) int32 {
		ns := g.Neighbors(v)
		c := cur[v]
		for int(c) < len(ns) && mate[ns[c]] != Unmatched {
			c++
		}
		cur[v] = c
		if int(c) < len(ns) {
			return ns[c]
		}
		return Unmatched // no unmatched neighbor left: retire
	}, sp)
}

// tally is one chunk's settle count: the survivors, which the serial
// prefix turns into the chunk's offset in the next list, and the pairs it
// matched.
type tally struct{ survivors, pairs int }

// handshake runs the proposal rounds of GM and GreedyRandom. pick(v, mate)
// returns v's proposal given the current matching: an unmatched neighbor,
// or Unmatched when none is left. Every vertex with a neighbor proposes
// once up front; then each round makes two passes over the active list,
// over the same chunks:
//
//   - settle: v whose proposal is mutual writes its own mate[v]; each
//     chunk counts its survivors (unmatched, with a proposal) and its
//     matched pairs, and a serial prefix turns the counts into offsets;
//   - advance: each survivor is written at its chunk's offset into the
//     spare list buffer and, if its target was matched in settle, picks
//     again, updating prop[v] in place.
//
// pick must return the same target while that target stays unmatched (a
// vertex's set of unmatched neighbors only shrinks, so the lowest-id and
// the minimum-priority choice both do), which makes re-picking only then
// equivalent to every vertex picking every round. Distinct mutual pairs
// share no vertex, and during advance v alone reads prop[v] while mate is
// final, so neither pass needs an atomic. The two list buffers alternate,
// so the rounds allocate nothing sized by the graph.
//
//lint:hotpath
func handshake(g *graph.Graph, pick func(v int32, mate []int32) int32, sp *trace.Span) (*Matching, Stats) {
	n := g.NumVertices()
	m := NewMatching(n)
	mate := m.Mate
	var st Stats
	prop := make([]int32, n)
	list := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) > 0 {
			list = append(list, v)
		}
	}
	spare := make([]int32, len(list))
	tallies := make([]tally, par.MaxChunks(len(list)))
	par.Range(len(list), func(lo, hi int) {
		for _, v := range list[lo:hi] {
			prop[v] = pick(v, mate)
		}
	})

	var next []int32
	settle := func(c, lo, hi int) {
		var t tally
		for _, v := range list[lo:hi] {
			w := prop[v]
			switch {
			case w == Unmatched: // retires
			case prop[w] == v:
				mate[v] = w
				if v < w {
					t.pairs++
				}
			default:
				t.survivors++
			}
		}
		tallies[c] = t
	}
	advance := func(c, lo, hi int) {
		p := tallies[c].survivors
		for _, v := range list[lo:hi] {
			w := prop[v]
			if w == Unmatched || mate[v] != Unmatched {
				continue
			}
			next[p] = v
			p++
			if mate[w] != Unmatched {
				prop[v] = pick(v, mate)
			}
		}
	}
	var matched int64
	for len(list) > 0 {
		st.Rounds++
		par.RangeIdx(len(list), settle)
		survivors := 0
		for c := range tallies[:par.NumChunks(len(list))] {
			t := &tallies[c]
			t.survivors, survivors = survivors, survivors+t.survivors
			matched += int64(t.pairs)
		}
		// GM's lowest-id active vertex and its pick (given sorted lists)
		// and GreedyRandom's minimum live edge always handshake, so every
		// round drops someone; a round that drops no one would repeat
		// forever.
		if survivors == len(list) {
			panic(errStalled)
		}
		next = spare[:survivors]
		par.RangeIdx(len(list), advance)
		list, spare = next, list[:cap(list)]
		st.PerRound = append(st.PerRound, matched)
		sp.Append("matched", matched)
		sp.Append("frontier", int64(survivors))
	}
	st.Matched = matched
	return m, st
}

// GMSolver returns GM as an Algorithm value.
func GMSolver() Algorithm { return gm }
