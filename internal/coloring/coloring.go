// Package coloring implements the paper's vertex coloring algorithms
// (Section IV): the multicore baseline VB (vertex-based speculative
// coloring after Deveci et al., on CPU chunks), the GPU baseline EB
// (edge-based coloring with a 32-bit availability mask, also Deveci et al.,
// run on the bsp virtual manycore), and the three decomposition-based
// algorithms COLOR-Bridge, COLOR-Rand and COLOR-Degk (Algorithms 7–9).
//
// VB, EB and COLOR-Degk's G_L phase run one speculative round loop
// (speculate): every work vertex picks the smallest color at or above a
// base that no colored neighbour holds, all candidates commit, the losing
// endpoint of every monochromatic edge resets, and the reset vertices are
// the next round's work. They differ only in the executor that runs the
// loop's four steps (parallel chunks on the CPU, one kernel launch per
// step on the virtual GPU) and in the base: 0 for VB and EB, the color
// above the G_H palette for COLOR-Degk's G_L phase.
package coloring

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// Uncolored marks a vertex that has no color yet.
const Uncolored int32 = -1

// Coloring is a vertex coloring: Color[v] ∈ [0, NumColors) or Uncolored.
type Coloring struct {
	Color []int32
}

// NewColoring returns an all-Uncolored coloring over n vertices.
func NewColoring(n int) *Coloring {
	c := &Coloring{Color: make([]int32, n)}
	par.Fill(c.Color, Uncolored)
	return c
}

// NumColors reports the palette size actually used (max color + 1).
func (c *Coloring) NumColors() int32 {
	return par.MaxIndexed(len(c.Color), int32(-1), func(i int) int32 {
		return c.Color[i]
	}) + 1
}

// Verify checks that c is a complete proper coloring of g.
func Verify(g *graph.Graph, c *Coloring) error {
	n := g.NumVertices()
	if len(c.Color) != n {
		return fmt.Errorf("coloring: %d entries for %d vertices", len(c.Color), n)
	}
	for v := 0; v < n; v++ {
		if c.Color[v] == Uncolored {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		if c.Color[v] < 0 {
			return fmt.Errorf("coloring: vertex %d has negative color %d", v, c.Color[v])
		}
	}
	var bad error
	for v := 0; v < n && bad == nil; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			if c.Color[w] == c.Color[v] {
				bad = fmt.Errorf("coloring: edge {%d,%d} monochromatic (color %d)", v, w, c.Color[v])
				break
			}
		}
	}
	return bad
}

// Stats reports work counters for a coloring run.
type Stats struct {
	// Rounds is the number of speculative color / conflict-resolve
	// iterations.
	Rounds int
}

// Engine is a configured base coloring algorithm. Repair extends a partial
// proper coloring (work lists the vertices whose Color entry is Uncolored)
// to a complete proper coloring of g without touching already-colored
// vertices; Fresh runs it over a whole graph. The decomposition-based
// algorithms use Repair for their recoloring phases, exactly as the paper
// recolors conflicted vertices "along with" the cross/bridge edges.
type Engine interface {
	// Name identifies the engine ("VB" or "EB").
	Name() string
	// Repair colors exactly the vertices in work (whose color entries must
	// be Uncolored on entry) so that no edge touching them is
	// monochromatic, recording the run on the phase span sp (nil:
	// untraced). Uncolored vertices outside work are left untouched and
	// impose no constraints, so Repair doubles as a masked fresh coloring
	// of the subgraph induced by work.
	Repair(g *graph.Graph, color []int32, work []int32, sp *trace.Span) Stats
	// Exec returns the engine's executor, which runs body over a
	// partition of [0, n) into contiguous ranges on the engine's execution
	// substrate: parallel chunks on the CPU, or one kernel launch of n
	// logical threads on the virtual GPU, attributed to sp, whose chunks
	// are the ranges. Shared phases such as COLOR-Degk's coloring of G_L
	// above the G_H palette use it so their work is accounted to the
	// right device.
	Exec(sp *trace.Span) func(n int, body func(lo, hi int))
}

// Fresh colors all of g with eng, recording the run on sp: every vertex
// starts Uncolored and in the work list of eng's Repair.
func Fresh(g *graph.Graph, eng Engine, sp *trace.Span) (*Coloring, Stats) {
	c := NewColoring(g.NumVertices())
	work := make([]int32, g.NumVertices())
	par.Iota(work)
	return c, eng.Repair(g, c.Color, work, sp)
}

// speculate is the speculative coloring loop of VB, EB and COLOR-Degk's
// G_L phase. Each round runs four steps under exec: every work vertex
// picks the smallest color ≥ base that no colored neighbour holds, all
// candidates commit, the lower (hashed-id) priority endpoint of every
// monochromatic edge marks itself, and the marked vertices reset to
// Uncolored and form the next round's work, whose size is appended to
// sp's "frontier" series. The highest priority in any conflict
// neighborhood always keeps its color, so every round makes progress.
//
// A work vertex v searches one 32-color band [band[v], band[v]+32) at a
// time, starting at base, and mask[v] holds the band's colors that v's
// colored neighbours hold (EB's availability mask, kept across rounds).
// Those colors only accumulate: at pick time every work vertex is
// Uncolored, so v's colored neighbours are fixed vertices or earlier
// winners, and neither changes again. So v scans its adjacency in round 1
// and again only when its band fills up and it moves to the next one; in
// between, each winner of the reset step adds its color to the mask of
// every neighbour that lost this round (cand == Uncolored, which nothing
// writes during that step). The pick, the lowest clear bit, is therefore
// the color a full rescan would return. Masks are written concurrently
// only in the reset step, atomically, and read only after its barrier.
//
//lint:hotpath
func speculate(g *graph.Graph, color, work []int32, base int32,
	exec func(n int, body func(lo, hi int)), sp *trace.Span) Stats {
	var st Stats
	n := g.NumVertices()
	cand := make([]int32, n)
	band := make([]int32, n)
	mask := make([]uint32, n)
	for len(work) > 0 {
		st.Rounds++
		first := st.Rounds == 1
		exec(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := work[i]
				b, m := band[v], mask[v]
				if first {
					b, m = base-32, ^uint32(0) // a full band below base: scan base next
				}
				for m == ^uint32(0) {
					b, m = b+32, 0
					for _, w := range g.Neighbors(v) {
						if d := uint32(color[w] - b); d < 32 {
							m |= 1 << d
						}
					}
				}
				band[v], mask[v] = b, m
				cand[v] = b + int32(bits.TrailingZeros32(^m))
			}
		})
		exec(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				color[work[i]] = cand[work[i]]
			}
		})
		exec(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := work[i]
				cv := color[v]
				for _, w := range g.Neighbors(v) {
					if color[w] == cv && loses(v, w) {
						cand[v] = Uncolored
						break
					}
				}
			}
		})
		exec(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := work[i]
				c := cand[v]
				if c == Uncolored {
					color[v] = Uncolored
					continue
				}
				for _, u := range g.Neighbors(v) {
					if cand[u] != Uncolored {
						continue
					}
					if d := uint32(c - band[u]); d < 32 {
						setBit(&mask[u], 1<<d)
					}
				}
			}
		})
		work = par.Filter(work, func(v int32) bool { return color[v] == Uncolored })
		sp.Append("frontier", int64(len(work)))
	}
	return st
}

// setBit ORs bit into *m atomically: a CAS loop, as in par.Bitset.Set,
// since atomic.OrUint32 is newer than the module's go version.
func setBit(m *uint32, bit uint32) {
	for {
		old := atomic.LoadUint32(m)
		if old&bit != 0 || atomic.CompareAndSwapUint32(m, old, old|bit) {
			return
		}
	}
}

// conflictTieSeed scrambles vertex ids for conflict resolution. The paper
// resets "the endpoint with the lowest id"; that rule assumes ids are
// uncorrelated with structure. Our synthetic instances number vertices
// along their structure (grids, chains, bands), where literal lowest-id
// resolution degenerates into a sequential wave-front. Hashing the id first
// is the same rule applied to a relabeled graph and keeps both determinism
// and the guaranteed-progress argument (a total order on vertices).
const conflictTieSeed uint64 = 0x5ca1ab1e

// loses reports whether v loses a color conflict against w and must
// recolor.
func loses(v, w int32) bool {
	hv := par.Hash64(conflictTieSeed, int64(v))
	hw := par.Hash64(conflictTieSeed, int64(w))
	if hv != hw {
		return hv < hw
	}
	return v < w
}

// Report describes a full decomposition-based coloring run: the shared
// run report, whose Rounds accumulate engine iterations across phases,
// plus the recoloring count.
type Report struct {
	trace.Report
	// Conflicted counts vertices that had to be recolored after the
	// independent subgraph colorings (the cost driver for COLOR-Rand).
	Conflicted int64
}
