package bipartite

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
)

// completeBipartite returns K_{a,b} with left ids [0,a) and right [a,a+b).
func completeBipartite(a, b int) (*graph.Graph, []bool) {
	bld := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(int32(i), int32(a+j))
		}
	}
	side := make([]bool, a+b)
	for j := 0; j < b; j++ {
		side[a+j] = true
	}
	return bld.Build(), side
}

// randomBipartite returns a random bipartite graph.
func randomBipartite(a, b, m int, seed uint64) (*graph.Graph, []bool) {
	r := par.NewRNG(seed)
	bld := graph.NewBuilder(a + b)
	for i := 0; i < m; i++ {
		bld.AddEdge(int32(r.Intn(a)), int32(a+r.Intn(b)))
	}
	side := make([]bool, a+b)
	for j := 0; j < b; j++ {
		side[a+j] = true
	}
	return bld.Build(), side
}

// bruteMax mirrors the branching oracle from the matching package.
func bruteMax(g *graph.Graph) int {
	edges := g.Edges()
	used := make([]bool, g.NumVertices())
	var best int
	var rec func(i, size int)
	rec = func(i, size int) {
		if size > best {
			best = size
		}
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

func TestMaxMatchingKnown(t *testing.T) {
	g, side := completeBipartite(6, 6)
	m, err := MaxMatching(g, side)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != 6 {
		t.Fatalf("K_{6,6} matching %d, want 6", m.Cardinality())
	}
	g, side = completeBipartite(3, 8)
	m, _ = MaxMatching(g, side)
	if m.Cardinality() != 3 {
		t.Fatalf("K_{3,8} matching %d, want 3", m.Cardinality())
	}
	// Empty graph.
	m, err = MaxMatching(graph.NewBuilder(4).Build(), make([]bool, 4))
	if err != nil || m.Cardinality() != 0 {
		t.Fatalf("empty: %v, %d", err, m.Cardinality())
	}
}

func TestMaxMatchingValidPairs(t *testing.T) {
	g, side := randomBipartite(40, 40, 200, 1)
	m, err := MaxMatching(g, side)
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range m.Mate {
		if w == matching.Unmatched {
			continue
		}
		if m.Mate[w] != int32(v) || !g.HasEdge(int32(v), w) {
			t.Fatalf("invalid pair %d-%d", v, w)
		}
	}
}

func TestMaxMatchingMatchesBruteForce(t *testing.T) {
	if err := quick.Check(func(raw []uint16, a8, b8 uint8) bool {
		a := int(a8)%5 + 1
		b := int(b8)%5 + 1
		bld := graph.NewBuilder(a + b)
		for i := 0; i+1 < len(raw); i += 2 {
			bld.AddEdge(int32(int(raw[i])%a), int32(a+int(raw[i+1])%b))
		}
		g := bld.Build()
		side := make([]bool, a+b)
		for j := 0; j < b; j++ {
			side[a+j] = true
		}
		m, err := MaxMatching(g, side)
		if err != nil {
			return false
		}
		return int(m.Cardinality()) == bruteMax(g)
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMatchingDominatesMaximal(t *testing.T) {
	g, side := randomBipartite(300, 300, 2500, 3)
	opt, err := MaxMatching(g, side)
	if err != nil {
		t.Fatal(err)
	}
	heur, _ := matching.GM(g)
	if heur.Cardinality() > opt.Cardinality() {
		t.Fatalf("maximal %d exceeds maximum %d", heur.Cardinality(), opt.Cardinality())
	}
	if 2*heur.Cardinality() < opt.Cardinality() {
		t.Fatalf("maximal %d below half of maximum %d", heur.Cardinality(), opt.Cardinality())
	}
}

func TestMaxMatchingRejectsNonBipartite(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	if _, err := MaxMatching(b.Build(), make([]bool, 3)); err == nil {
		t.Fatal("triangle accepted")
	}
	if _, err := MaxMatching(b.Build(), make([]bool, 2)); err == nil {
		t.Fatal("short side accepted")
	}
}
