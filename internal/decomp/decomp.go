package decomp

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/trace"
)

// Technique identifies a decomposition strategy.
type Technique int

const (
	// TechBridge is the 2-edge-connected component decomposition.
	TechBridge Technique = iota
	// TechRand is the uniform random vertex partitioning.
	TechRand
	// TechDegk is the degree-threshold decomposition.
	TechDegk
	// TechMPX is the Miller–Peng–Xu exponential-shift ball growing
	// (an extension beyond the paper's three techniques).
	TechMPX
	// TechMultilevel is the matching-based multilevel k-way partitioner,
	// the PMETIS stand-in for the paper's Remark 1.
	TechMultilevel
)

// String returns the paper's name for the technique.
func (t Technique) String() string {
	switch t {
	case TechBridge:
		return "BRIDGE"
	case TechRand:
		return "RAND"
	case TechDegk:
		return "DEGk"
	case TechMPX:
		return "MPX"
	case TechMultilevel:
		return "MULTILEVEL"
	default:
		return "UNKNOWN"
	}
}

// Techniques lists every technique, in display order. Parsing and table
// code iterates this instead of hand-maintaining name lists.
func Techniques() []Technique {
	return []Technique{TechBridge, TechRand, TechDegk, TechMPX, TechMultilevel}
}

// ParseTechnique parses a technique name, case-insensitively, accepting
// exactly the String() forms — so names round-trip between CLI flags,
// harness table headers, and this parser.
func ParseTechnique(s string) (Technique, error) {
	for _, t := range Techniques() {
		if strings.EqualFold(s, t.String()) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown decomposition technique %q (want bridge, rand, degk, mpx or multilevel)", s)
}

// Result is a materialized decomposition.
//
// The meaning of Parts and Cross depends on the technique:
//
//   - BRIDGE: Parts has one entry, G_c = G − B over all vertices (its
//     connected components are the 2-edge-connected components; parallel
//     solvers process them simultaneously for free). Cross is the
//     edge-induced subgraph of the bridge set B, and Bridges lists B.
//   - RAND and MULTILEVEL: Parts are the k induced subgraphs
//     G[V_1..V_k]; Cross is G_{k+1}, the edge-induced subgraph of the
//     cross edges.
//   - DEGk: Parts[0] = G_L (deg ≤ k), Parts[1] = G_H (deg > k); Cross is
//     G_C.
//   - MPX: like BRIDGE, Parts has one entry — the union of the grown
//     balls, whose connected components are (unions of) the balls — and
//     Cross is the edge-induced subgraph of the inter-ball edges. Label
//     is the ball index and Balls the ball count.
type Result struct {
	Technique Technique
	Parts     []*graph.Sub
	Cross     *graph.Sub
	// Label maps each vertex to its part index (BRIDGE: always 0 — the
	// single G_c part; vertices keep their component structure inside it).
	Label []int32
	// Bridges is the bridge edge set (BRIDGE only), canonical orientation.
	Bridges []graph.Edge
	// Balls is the number of balls grown (MPX only). For MPX, Label[v] is
	// the ball index of v (dense, ordered by center vertex id).
	Balls int
	// Rounds is the number of parallel rounds the decomposition ran
	// (BRIDGE: BFS depth; MPX: ball-growing rounds; MULTILEVEL:
	// coarsening levels; others: 1).
	Rounds int
}

// PartEdges reports the total number of edges across Parts.
func (r *Result) PartEdges() int64 {
	var m int64
	for _, p := range r.Parts {
		m += p.NumEdges()
	}
	return m
}

// CrossEdges reports the number of edges in Cross.
func (r *Result) CrossEdges() int64 {
	if r.Cross == nil {
		return 0
	}
	return r.Cross.NumEdges()
}

// Trace records the decomposition's shape counters on sp: part/cross
// edge split, part count, and the parallel round count — the quantities
// Figure 2 and the decomp-stats experiment report. The decompositions
// open no spans themselves; a caller that times one records its shape
// here. Safe on a nil sp.
func (r *Result) Trace(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.Add("parts", int64(len(r.Parts)))
	sp.Add("part_edges", r.PartEdges())
	sp.Add("cross_edges", r.CrossEdges())
	sp.Add("rounds", int64(r.Rounds))
	if len(r.Bridges) > 0 {
		sp.Add("bridges", int64(len(r.Bridges)))
	}
	if r.Balls > 0 {
		sp.Add("balls", int64(r.Balls))
	}
}
