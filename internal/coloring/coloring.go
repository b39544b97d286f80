// Package coloring implements the paper's vertex coloring algorithms
// (Section IV): the multicore baseline VB (vertex-based speculative
// coloring with a fixed-size FORBIDDEN array, after Deveci et al.), the GPU
// baseline EB (edge-based coloring with a 32-bit availability mask, also
// Deveci et al., run on the bsp virtual manycore), and the three
// decomposition-based algorithms COLOR-Bridge, COLOR-Rand and COLOR-Degk
// (Algorithms 7–9).
//
// VB, EB and COLOR-Degk's G_L phase run one speculative round loop
// (speculate): every work vertex picks a candidate color, all candidates
// commit, the losing endpoint of every monochromatic edge resets, and the
// reset vertices are the next round's work. They differ only in the
// executor that runs the loop's four steps (parallel chunks on the CPU, one
// kernel launch per step on the virtual GPU) and in how a vertex finds its
// smallest free color: VB's FORBIDDEN window, EB's 32-color bands, and
// COLOR-Degk's (k+1)-color window starting above the G_H palette.
package coloring

import (
	"fmt"

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
	// substrate: parallel chunks on the CPU, one kernel launch of n
	// single-index threads on the virtual GPU, attributed to sp. Shared
	// phases such as COLOR-Degk's bounded-palette coloring of G_L use it
	// so their work is accounted to the right device.
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
// picks a candidate color against the current colors, all candidates
// commit, the lower (hashed-id) priority endpoint of every monochromatic
// edge marks itself, and the marked vertices reset to Uncolored and form
// the next round's work, whose size is appended to sp's "frontier"
// series. The highest priority in any conflict neighborhood always keeps
// its color, so every round makes progress.
//
// pick receives a FORBIDDEN buffer of window entries (nil when window is
// 0), allocated once per exec range and reused across that range's
// vertices; pick must not rely on its contents on entry.
func speculate(g *graph.Graph, color, work []int32, exec func(n int, body func(lo, hi int)),
	window int, pick func(v int32, forbidden []bool) int32, sp *trace.Span) Stats {
	var st Stats
	cand := make([]int32, g.NumVertices())
	for len(work) > 0 {
		st.Rounds++
		exec(len(work), func(lo, hi int) {
			var forbidden []bool
			if window > 0 {
				forbidden = make([]bool, window)
			}
			for i := lo; i < hi; i++ {
				cand[work[i]] = pick(work[i], forbidden)
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
				if cand[work[i]] == Uncolored {
					color[work[i]] = Uncolored
				}
			}
		})
		work = par.Filter(work, func(v int32) bool { return color[v] == Uncolored })
		sp.Append("frontier", int64(len(work)))
	}
	return st
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
