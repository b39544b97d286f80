package coloring

import (
	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/trace"
)

// EB is the paper's GPU baseline (Algorithm EB, after Deveci et al.):
// edge-based speculative coloring designed for SIMD architectures. Instead
// of a FORBIDDEN array, a 32-bit integer represents color availability
// within a 32-color band (speculate keeps one per vertex, and VB shares
// it). Every working vertex takes the smallest available color; conflicts
// are detected on edges and the lower-priority endpoint of each
// monochromatic edge (hashed-id order, see loses) is reset. Kernels run on
// the bsp virtual manycore.
type EB struct {
	machine *bsp.Machine
}

// NewEB returns an EB engine bound to the given machine.
func NewEB(m *bsp.Machine) *EB { return &EB{machine: m} }

// Name implements Engine.
func (eb *EB) Name() string { return "EB" }

// Exec implements Engine's executor: one kernel launch of n threads on
// the machine, attributed to sp.
func (eb *EB) Exec(sp *trace.Span) func(n int, body func(lo, hi int)) {
	return eb.machine.In(sp)
}

// Fresh colors all of g, untraced.
func (eb *EB) Fresh(g *graph.Graph) (*Coloring, Stats) { return Fresh(g, eb, nil) }

// Repair implements Engine: the speculative loop as four kernel launches
// per round, from color 0.
func (eb *EB) Repair(g *graph.Graph, color []int32, work []int32, sp *trace.Span) Stats {
	return speculate(g, color, work, 0, eb.Exec(sp), sp)
}
