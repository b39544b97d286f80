package coloring

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// VB is the paper's multicore CPU baseline (Algorithm VB, after Deveci et
// al.): speculative vertex-based coloring with a fixed-size FORBIDDEN
// array. Every working vertex searches for the smallest valid color inside
// a window of ForbiddenSize colors; if the window is exhausted an OFFSET
// advances it. After each speculative round, conflicting vertices (the
// lower id of each monochromatic edge) are uncolored and retried.
//
// The paper sizes the FORBIDDEN array at the average degree of the graph
// being colored; ForbiddenSize = 0 selects that default.
type VB struct {
	// ForbiddenSize is the FORBIDDEN window size; 0 means
	// max(1, ⌊average degree⌋) of the graph being colored.
	ForbiddenSize int
}

// NewVB returns a VB engine with the paper's default FORBIDDEN sizing.
func NewVB() *VB { return &VB{} }

// Name implements Engine.
func (vb *VB) Name() string { return "VB" }

// Exec implements Engine's executor: parallel chunks on the CPU.
func (vb *VB) Exec(n int, body func(lo, hi int)) { par.Range(n, body) }

// Fresh implements Engine.
func (vb *VB) Fresh(g *graph.Graph) (*Coloring, Stats) { return fresh(g, vb.Repair) }

// Repair implements Engine: the speculative loop with one FORBIDDEN array
// per chunk, each vertex searching windows from color 0.
func (vb *VB) Repair(g *graph.Graph, color []int32, work []int32) Stats {
	f := vb.ForbiddenSize
	if f <= 0 {
		// The paper sizes the FORBIDDEN array at the average degree of the
		// graph being colored — here, the work vertices.
		if len(work) > 0 {
			total := par.Sum(len(work), func(i int) int64 {
				return int64(g.Degree(work[i]))
			})
			f = int(total / int64(len(work)))
		}
		if f < 1 {
			f = 1
		}
	}
	return speculate(g, color, work, vb.Exec, f, func(v int32, forbidden []bool) int32 {
		return findColor(g, color, v, forbidden, 0)
	})
}

// findColor returns the smallest color ≥ base not used by any neighbor of
// v, scanning the palette in windows the size of the forbidden buffer.
func findColor(g *graph.Graph, color []int32, v int32, forbidden []bool, base int32) int32 {
	f := int32(len(forbidden))
	for {
		for j := range forbidden {
			forbidden[j] = false
		}
		limit := base + f
		for _, w := range g.Neighbors(v) {
			if cw := color[w]; cw >= base && cw < limit {
				forbidden[cw-base] = true
			}
		}
		for j := int32(0); j < f; j++ {
			if !forbidden[j] {
				return base + j
			}
		}
		base += f // OFFSET advance: whole window forbidden
	}
}
