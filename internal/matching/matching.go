// Package matching implements the paper's maximal matching algorithms
// (Section III): the multicore baseline GM (greedy handshake matching with
// lowest-id potential mates, after Blelloch et al.), the GPU baseline LMAX
// (local-max edge-weight matching, after Birn et al., executed on the bsp
// virtual manycore), and the three decomposition-based algorithms
// MM-Bridge, MM-Rand and MM-Degk (Algorithms 4–6).
package matching

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// Unmatched marks a vertex with no matching partner.
const Unmatched int32 = -1

// Matching is a matching over a graph: Mate[v] is v's partner, or Unmatched.
type Matching struct {
	Mate []int32
}

// NewMatching returns an empty matching over n vertices.
func NewMatching(n int) *Matching {
	m := &Matching{Mate: make([]int32, n)}
	par.Fill(m.Mate, Unmatched)
	return m
}

// Cardinality reports the number of matched edges.
func (m *Matching) Cardinality() int64 {
	return par.Count(len(m.Mate), func(i int) bool {
		return m.Mate[i] != Unmatched && m.Mate[i] > int32(i)
	})
}

// Verify checks that m is a valid maximal matching of g: Mate is symmetric,
// every matched pair is an edge of g, and no edge of g has both endpoints
// unmatched. Returns nil when all hold.
func Verify(g *graph.Graph, m *Matching) error {
	n := g.NumVertices()
	if len(m.Mate) != n {
		return fmt.Errorf("matching: Mate has %d entries, graph has %d vertices", len(m.Mate), n)
	}
	for v := 0; v < n; v++ {
		w := m.Mate[v]
		if w == Unmatched {
			continue
		}
		if w < 0 || int(w) >= n {
			return fmt.Errorf("matching: Mate[%d] = %d out of range", v, w)
		}
		if m.Mate[w] != int32(v) {
			return fmt.Errorf("matching: Mate[%d] = %d but Mate[%d] = %d", v, w, w, m.Mate[w])
		}
		if !g.HasEdge(int32(v), w) {
			return fmt.Errorf("matching: pair {%d,%d} is not an edge", v, w)
		}
	}
	var bad error
	for v := 0; v < n && bad == nil; v++ {
		if m.Mate[v] != Unmatched {
			continue
		}
		for _, w := range g.Neighbors(int32(v)) {
			if m.Mate[w] == Unmatched {
				bad = fmt.Errorf("matching: not maximal, edge {%d,%d} has both endpoints free", v, w)
				break
			}
		}
	}
	return bad
}

// Stats reports work counters for a matching run.
type Stats struct {
	// Rounds is the number of proposal/handshake iterations executed.
	Rounds int
	// Matched is the number of edges the run added to the matching.
	Matched int64
	// PerRound is the cumulative number of matched edges after each round
	// — the progress curve behind the paper's §III-C observation that
	// MM-Rand matches ~70% of the induced-subgraph vertices within 17
	// iterations while GM needs ~14,000 iterations on rgg.
	PerRound []int64
}

// Algorithm is a configured maximal matching subroutine: it computes a
// maximal matching on any graph handed to it, recording its per-round
// series on sp (nil: untraced). The decomposition-based algorithms take
// one as the inner solver, exactly as the paper uses GM on the CPU and
// LMAX on the GPU as subroutines, and hand it their phase span.
type Algorithm func(g *graph.Graph, sp *trace.Span) (*Matching, Stats)

// errStalled is the panic value of a cursor-based solver (GM, LMAX) whose
// round matched and retired no vertex. The cursors assume sorted adjacency
// lists, under which every round makes progress; a stalled round means
// the input broke that invariant, and the loop would repeat it forever.
var errStalled = errors.New("matching: a round made no progress: adjacency lists must be sorted ascending")

// Report describes a full decomposition-based run. It is the run report
// every solver package shares.
type Report = trace.Report
