package graph

import (
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.NumArcs() != 0 {
		t.Fatal("zero-value graph not empty")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := NewBuilder(0).Build()
	if g2.NumVertices() != 0 || g2.NumEdges() != 0 {
		t.Fatal("built empty graph not empty")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Fatal("edge membership wrong after dedup")
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	b.SetNumVertices(20)
	if b.Build().NumVertices() != 20 {
		t.Fatal("SetNumVertices ignored")
	}
	b.SetNumVertices(3) // must not shrink
	if b.Build().NumVertices() != 20 {
		t.Fatal("SetNumVertices shrank the graph")
	}
}

func TestBuilderIgnoresNegativeIDs(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(-1, 0)
	b.AddEdge(0, -3)
	if g := b.Build(); g.NumEdges() != 0 {
		t.Fatalf("negative-id edges accepted: %d edges", g.NumEdges())
	}
}

func TestDegreesAndNeighborsSorted(t *testing.T) {
	g := paperGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	wantDeg := []int32{2, 2, 3, 3, 2, 2, 3, 1}
	for v, want := range wantDeg {
		if d := g.Degree(int32(v)); d != want {
			t.Fatalf("Degree(%d) = %d, want %d", v, d, want)
		}
	}
	ns := g.Neighbors(6)
	want := []int32{3, 5, 7}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(6) = %v, want %v", ns, want)
		}
	}
}

func TestHasEdgeExhaustive(t *testing.T) {
	g := paperGraph()
	adj := map[[2]int32]bool{}
	for _, e := range g.Edges() {
		adj[[2]int32{e.U, e.V}] = true
	}
	n := int32(g.NumVertices())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			want := adj[[2]int32{u, v}] || adj[[2]int32{v, u}]
			if u == v {
				want = false
			}
			if got := g.HasEdge(u, v); got != want {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := randomGraph(500, 2000, 42)
	edges := g.Edges()
	if int64(len(edges)) != g.NumEdges() {
		t.Fatalf("Edges len %d, NumEdges %d", len(edges), g.NumEdges())
	}
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d not canonical: %v", i, e)
		}
		if i > 0 && (edges[i-1].U > e.U || (edges[i-1].U == e.U && edges[i-1].V >= e.V)) {
			t.Fatalf("edges not sorted at %d", i)
		}
	}
	g2 := FromEdges(g.NumVertices(), edges)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed edge count")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) != g2.Degree(int32(v)) {
			t.Fatalf("round trip changed degree of %d", v)
		}
	}
}

func TestMaxAvgDegree(t *testing.T) {
	g := star(11)
	if g.MaxDegree() != 10 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got, want := g.AvgDegree(), 2.0*10/11; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("AvgDegree = %v, want %v", got, want)
	}
}

func TestEdgeCanon(t *testing.T) {
	if (Edge{3, 1}).Canon() != (Edge{1, 3}) {
		t.Fatal("Canon did not swap")
	}
	if (Edge{1, 3}).Canon() != (Edge{1, 3}) {
		t.Fatal("Canon modified ordered edge")
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]int32{{1, 2}, {0}, {0}})
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("FromAdjacency got n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesPropertySimpleAndSymmetric(t *testing.T) {
	if err := quick.Check(func(raw [][2]uint8) bool {
		edges := make([]Edge, len(raw))
		for i, p := range raw {
			edges[i] = Edge{int32(p[0] % 50), int32(p[1] % 50)}
		}
		g := FromEdges(50, edges)
		return g.Validate() == nil
	}, nil); err != nil {
		t.Fatal(err)
	}
}
