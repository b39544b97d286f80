package coloring

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// VB is the paper's multicore CPU baseline (Algorithm VB, after Deveci et
// al.): speculative vertex-based coloring. Every working vertex takes the
// smallest color no colored neighbour holds; after each speculative round,
// the lower-priority endpoint of each monochromatic edge (hashed-id order,
// see loses) is uncolored and retried. The rounds run on parallel CPU
// chunks; the color search is speculate's, shared with EB.
type VB struct{}

// NewVB returns a VB engine.
func NewVB() *VB { return &VB{} }

// Name implements Engine.
func (vb *VB) Name() string { return "VB" }

// Exec implements Engine's executor: parallel chunks on the CPU.
func (vb *VB) Exec(*trace.Span) func(n int, body func(lo, hi int)) { return par.Range }

// Fresh colors all of g, untraced.
func (vb *VB) Fresh(g *graph.Graph) (*Coloring, Stats) { return Fresh(g, vb, nil) }

// Repair implements Engine: the speculative loop on CPU chunks, from
// color 0.
func (vb *VB) Repair(g *graph.Graph, color []int32, work []int32, sp *trace.Span) Stats {
	return speculate(g, color, work, 0, par.Range, sp)
}
