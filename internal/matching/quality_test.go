package matching

import (
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/graph"
)

// maxMatchingBrute computes the maximum matching cardinality by branching
// on each edge (include/skip). Exponential; for tiny oracle graphs only.
func maxMatchingBrute(g *graph.Graph) int {
	edges := g.Edges()
	used := make([]bool, g.NumVertices())
	var best int
	var rec func(i, size int)
	rec = func(i, size int) {
		if size > best {
			best = size
		}
		// Prune: even taking every remaining edge cannot beat best.
		if size+(len(edges)-i) <= best {
			return
		}
		for j := i; j < len(edges); j++ {
			e := edges[j]
			if used[e.U] || used[e.V] {
				continue
			}
			used[e.U], used[e.V] = true, true
			rec(j+1, size+1)
			used[e.U], used[e.V] = false, false
		}
	}
	rec(0, 0)
	return best
}

func TestMaxMatchingBruteKnown(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{pathGraph(2), 1},
		{pathGraph(5), 2},
		{pathGraph(6), 3},
		{cycleGraph(5), 2},
		{cycleGraph(6), 3},
		{starGraph(6), 1},
		{completeGraph(6), 3},
	}
	for i, c := range cases {
		if got := maxMatchingBrute(c.g); got != c.want {
			t.Fatalf("case %d: max matching %d, want %d", i, got, c.want)
		}
	}
}

// TestMaximalIsHalfApprox checks the classic guarantee on random small
// graphs: every maximal matching has at least half the maximum cardinality.
func TestMaximalIsHalfApprox(t *testing.T) {
	machine := bsp.New()
	algs := map[string]Algorithm{
		"GM":          GMSolver(),
		"LMAX":        LMAXSolver(machine),
		"IsraeliItai": israeliItai(1),
	}
	check := func(raw []uint16) bool {
		b := graph.NewBuilder(9)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int32(raw[i]%9), int32(raw[i+1]%9))
		}
		g := b.Build()
		opt := maxMatchingBrute(g)
		for name, alg := range algs {
			m, _ := alg(g, nil)
			if err := Verify(g, m); err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			if 2*m.Cardinality() < int64(opt) {
				t.Logf("%s: |M|=%d below half of ν=%d", name, m.Cardinality(), opt)
				return false
			}
		}
		// The decomposed algorithms inherit the guarantee.
		for _, m := range []*Matching{
			first(MMRand(g, 3, 2, GMSolver(), nil)),
			first(MMDegk(g, 2, GMSolver(), nil)),
			first(MMBridge(g, GMSolver(), nil)),
			first(MMBiconn(g, GMSolver(), nil)),
		} {
			if 2*m.Cardinality() < int64(opt) {
				t.Logf("decomposed |M|=%d below half of ν=%d", m.Cardinality(), opt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func first(m *Matching, _ Report) *Matching { return m }
