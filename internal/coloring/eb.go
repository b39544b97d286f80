package coloring

import (
	"math/bits"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/trace"
)

// EB is the paper's GPU baseline (Algorithm EB, after Deveci et al.):
// edge-based speculative coloring designed for SIMD architectures. Instead
// of a FORBIDDEN array, a 32-bit integer represents color availability
// within a 32-color band. Every working vertex takes the smallest available
// color; conflicts are detected on edges and the lowest-id endpoint of each
// monochromatic edge is reset. Kernels run on the bsp virtual manycore.
type EB struct {
	machine *bsp.Machine
}

// NewEB returns an EB engine bound to the given machine.
func NewEB(m *bsp.Machine) *EB { return &EB{machine: m} }

// Name implements Engine.
func (eb *EB) Name() string { return "EB" }

// Exec implements Engine's executor: one kernel launch of n threads on
// the machine, attributed to sp, each thread running body over its own
// index.
func (eb *EB) Exec(sp *trace.Span) func(n int, body func(lo, hi int)) {
	launch := eb.machine.In(sp)
	return func(n int, body func(lo, hi int)) {
		launch(n, func(i int) { body(i, i+1) })
	}
}

// Machine exposes the underlying virtual device (for stats accounting).
func (eb *EB) Machine() *bsp.Machine { return eb.machine }

// Fresh colors all of g, untraced.
func (eb *EB) Fresh(g *graph.Graph) (*Coloring, Stats) { return Fresh(g, eb, nil) }

// Repair implements Engine: the speculative loop as four kernel launches
// per round, each thread picking its color through 32-color bands.
func (eb *EB) Repair(g *graph.Graph, color []int32, work []int32, sp *trace.Span) Stats {
	return speculate(g, color, work, eb.Exec(sp), 0, func(v int32, _ []bool) int32 {
		return findColor32(g, color, v)
	}, sp)
}

// findColor32 returns the smallest color not used by v's neighbors,
// scanning the palette in 32-color bands with a bitmask (the paper: "a 32
// bit integer is used to represent the availability of the colors").
func findColor32(g *graph.Graph, color []int32, v int32) int32 {
	for base := int32(0); ; base += 32 {
		var forbid uint32
		for _, w := range g.Neighbors(v) {
			if cw := color[w]; cw >= base && cw < base+32 {
				forbid |= 1 << uint(cw-base)
			}
		}
		if forbid != ^uint32(0) {
			return base + int32(bits.TrailingZeros32(^forbid))
		}
	}
}
