package graph

import "testing"

func TestRemoveEdgesKeepsVertices(t *testing.T) {
	g := paperGraph()
	// Drop the two bridges {2,3} and {6,7}.
	isBridge := func(a, b int32) bool {
		e := Edge{a, b}.Canon()
		return e == Edge{2, 3} || e == Edge{6, 7}
	}
	gc, cross := SplitEdges(g, func(a, b int32) bool { return !isBridge(a, b) })
	if gc.NumVertices() != g.NumVertices() {
		t.Fatalf("vertex count changed: %d", gc.NumVertices())
	}
	if gc.NumEdges() != g.NumEdges()-2 {
		t.Fatalf("edges = %d, want %d", gc.NumEdges(), g.NumEdges()-2)
	}
	if err := gc.Validate(); err != nil {
		t.Fatal(err)
	}
	if gc.HasEdge(2, 3) || gc.HasEdge(6, 7) {
		t.Fatal("removed edge still present")
	}
	if !gc.HasEdge(0, 1) {
		t.Fatal("kept edge missing")
	}
	// Vertex 7 becomes isolated but stays addressable.
	if gc.Degree(7) != 0 {
		t.Fatalf("degree of 7 = %d", gc.Degree(7))
	}
	if cross.NumEdges() != 2 || cross.NumVertices() != 4 {
		t.Fatalf("cross has %d edges over %d vertices, want 2 over 4", cross.NumEdges(), cross.NumVertices())
	}
}

func TestRemoveEdgesAllAndNone(t *testing.T) {
	g := cycle(10)
	none, noneCross := SplitEdges(g, func(a, b int32) bool { return false })
	if none.NumEdges() != 0 || none.NumVertices() != 10 {
		t.Fatal("remove-all wrong")
	}
	if noneCross.NumEdges() != g.NumEdges() || noneCross.NumVertices() != 10 {
		t.Fatal("remove-all cross wrong")
	}
	all, allCross := SplitEdges(g, func(a, b int32) bool { return true })
	if all.NumEdges() != g.NumEdges() {
		t.Fatal("keep-all wrong")
	}
	if allCross.NumEdges() != 0 || allCross.NumVertices() != 0 {
		t.Fatal("keep-all cross wrong")
	}
}

func TestIdentitySub(t *testing.T) {
	g := paperGraph()
	s := IdentitySub(g)
	if s.G != g {
		t.Fatal("IdentitySub wrapped a different graph")
	}
	if s.NumVertices() != g.NumVertices() || s.NumEdges() != g.NumEdges() {
		t.Fatal("IdentitySub counts wrong")
	}
	for i, v := range s.ToGlobal {
		if v != int32(i) {
			t.Fatalf("ToGlobal[%d] = %d", i, v)
		}
	}
}

func TestRelabelRandomIsomorphic(t *testing.T) {
	g := randomGraph(300, 1200, 6)
	h := RelabelRandom(g, 9)
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatal("relabeling changed counts")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	// Degree multiset preserved.
	count := func(x *Graph) map[int32]int {
		m := map[int32]int{}
		for v := 0; v < x.NumVertices(); v++ {
			m[x.Degree(int32(v))]++
		}
		return m
	}
	a, b := count(g), count(h)
	for d, c := range a {
		if b[d] != c {
			t.Fatalf("degree %d count %d vs %d", d, c, b[d])
		}
	}
	// Deterministic under seed, different under another.
	h2 := RelabelRandom(g, 9)
	for v := 0; v < h.NumVertices(); v++ {
		if h.Degree(int32(v)) != h2.Degree(int32(v)) {
			t.Fatal("relabel not deterministic")
		}
	}
}

func TestBuilderNumVerticesAddEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdges([]Edge{{0, 1}, {1, 2}, {2, 2}})
	g := b.Build()
	if g.NumVertices() != 3 {
		t.Fatalf("built %d vertices, want 3", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("AddEdges produced %d edges", g.NumEdges())
	}
}

func TestValidateCatchesCorruptGraphs(t *testing.T) {
	// Construct invalid CSR structures directly (same-package access).
	cases := []struct {
		name string
		g    Graph
	}{
		{"bad off0", Graph{off: []int64{1, 2}, adj: []int32{0, 0}}},
		{"non-monotone", Graph{off: []int64{0, 2, 1}, adj: []int32{1, 1}}},
		{"out of range", Graph{off: []int64{0, 1}, adj: []int32{5}}},
		{"self loop", Graph{off: []int64{0, 1}, adj: []int32{0}}},
		{"unsorted", Graph{off: []int64{0, 2, 3, 4}, adj: []int32{2, 1, 0, 0}}},
		{"asymmetric", Graph{off: []int64{0, 1, 1}, adj: []int32{1}}},
	}
	for _, c := range cases {
		if c.g.Validate() == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}
