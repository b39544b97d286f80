package decomp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func gridGraph(r, c int) *graph.Graph {
	b := graph.NewBuilder(r * c)
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return b.Build()
}

// checkPartition asserts r is a k-way partition of g whose cross edges
// match an independent recount of the cut.
func checkPartition(t *testing.T, g *graph.Graph, r *Result, k int) {
	t.Helper()
	if len(r.Label) != g.NumVertices() || len(r.Parts) != k {
		t.Fatalf("%d labels, %d parts", len(r.Label), len(r.Parts))
	}
	for v, l := range r.Label {
		if l < 0 || int(l) >= k {
			t.Fatalf("label[%d] = %d out of [0,%d)", v, l, k)
		}
	}
	var cut int64
	for _, e := range g.Edges() {
		if r.Label[e.U] != r.Label[e.V] {
			cut++
		}
	}
	if cut != r.CrossEdges() {
		t.Fatalf("cross edges %d, recount %d", r.CrossEdges(), cut)
	}
}

// imbalance is the heaviest part's vertex count over the ideal n/k.
func imbalance(r *Result, n int) float64 {
	var heaviest int
	for _, p := range r.Parts {
		heaviest = max(heaviest, p.NumVertices())
	}
	return float64(heaviest) * float64(len(r.Parts)) / float64(n)
}

func TestPartitionGridBalancedAndLocal(t *testing.T) {
	g := gridGraph(60, 60)
	k := 4
	r := Multilevel(g, k, 1)
	checkPartition(t, g, r, k)
	if imb := imbalance(r, g.NumVertices()); imb > 1.2 {
		t.Fatalf("imbalance %.2f", imb)
	}
	// A 4-way partition of a 60×60 grid has an ideal cut around 120; the
	// multilevel heuristic should stay within a small factor, and far
	// below a random partition's expected 3/4 of all edges.
	cut := r.CrossEdges()
	if cut > 800 {
		t.Fatalf("cut %d too high for a grid", cut)
	}
	if rnd := Rand(g, k, 1).CrossEdges(); cut*2 > rnd {
		t.Fatalf("multilevel cut %d not clearly below random cut %d", cut, rnd)
	}
}

func TestPartitionDegenerateCases(t *testing.T) {
	g := gridGraph(5, 5)
	r := Multilevel(g, 1, 1)
	for _, l := range r.Label {
		if l != 0 {
			t.Fatal("k=1 must label everything 0")
		}
	}
	if r.CrossEdges() != 0 {
		t.Fatal("k=1 cut nonzero")
	}
	// k ≥ n: one vertex per part.
	r = Multilevel(g, 25, 1)
	seen := map[int32]bool{}
	for _, l := range r.Label {
		if seen[l] {
			t.Fatal("k=n assigned two vertices to one part")
		}
		seen[l] = true
	}
	// Empty graph.
	r = Multilevel(graph.NewBuilder(0).Build(), 4, 1)
	if len(r.Label) != 0 {
		t.Fatal("empty graph label")
	}
}

func TestPartitionDisconnected(t *testing.T) {
	// Two cliques, no edges between: perfect 2-way cut = 0.
	b := graph.NewBuilder(40)
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			b.AddEdge(int32(i), int32(j))
			b.AddEdge(int32(20+i), int32(20+j))
		}
	}
	g := b.Build()
	r := Multilevel(g, 2, 3)
	checkPartition(t, g, r, 2)
	if r.CrossEdges() != 0 {
		t.Fatalf("disconnected cliques cut %d, want 0", r.CrossEdges())
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := randomGraph(800, 3200, 5)
	a := Multilevel(g, 6, 9).Label
	b := Multilevel(g, 6, 9).Label
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("labels differ at %d under same seed", i)
		}
	}
}

func TestPartitionBeatsRandomOnRealClasses(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.RGG(8000, gen.DegreeRadius(8000, 12), 2),
		gen.Road(25, 25, 4, 0.3, 2),
	} {
		r := Multilevel(g, 8, 1)
		if rnd := Rand(g, 8, 1).CrossEdges(); r.CrossEdges() >= rnd/2 {
			t.Fatalf("multilevel cut %d vs random %d: no locality win", r.CrossEdges(), rnd)
		}
		if imb := imbalance(r, g.NumVertices()); imb > 1.35 {
			t.Fatalf("imbalance %.2f", imb)
		}
	}
}

func TestPartitionPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Multilevel(gridGraph(3, 3), 0, 1)
}
