package decomp

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// Fixtures (mirrors of the graph package's test graphs).

func paperGraph() *graph.Graph {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(3, 6)
	b.AddEdge(6, 7)
	return b.Build()
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func cycleGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := par.NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

// checkEdgeConservation asserts the decomposition invariant: part edges
// plus cross edges equal the graph's edges.
func checkEdgeConservation(t *testing.T, g *graph.Graph, r *Result) {
	t.Helper()
	if got := r.PartEdges() + r.CrossEdges(); got != g.NumEdges() {
		t.Fatalf("%v: parts %d + cross %d = %d edges, graph has %d",
			r.Technique, r.PartEdges(), r.CrossEdges(), got, g.NumEdges())
	}
	for i, p := range r.Parts {
		if err := p.G.Validate(); err != nil {
			t.Fatalf("%v part %d: %v", r.Technique, i, err)
		}
	}
	if r.Cross != nil {
		if err := r.Cross.G.Validate(); err != nil {
			t.Fatalf("%v cross: %v", r.Technique, err)
		}
	}
}

func TestBridgePaperExample(t *testing.T) {
	g := paperGraph()
	r := Bridge(g)
	checkEdgeConservation(t, g, r)
	if len(r.Bridges) != 2 {
		t.Fatalf("bridges = %v, want {2,3} and {6,7}", r.Bridges)
	}
	want := map[graph.Edge]bool{{U: 2, V: 3}: true, {U: 6, V: 7}: true}
	for _, e := range r.Bridges {
		if !want[e] {
			t.Fatalf("unexpected bridge %v", e)
		}
	}
	gc := r.Parts[0]
	if gc.NumVertices() != 8 || gc.NumEdges() != 7 {
		t.Fatalf("G_c has n=%d m=%d, want 8/7", gc.NumVertices(), gc.NumEdges())
	}
	if r.Cross.NumEdges() != 2 || r.Cross.NumVertices() != 4 {
		t.Fatalf("G_b has n=%d m=%d, want 4/2", r.Cross.NumVertices(), r.Cross.NumEdges())
	}
	// Figure 1(b): components of G−B are {a,b,c}, {d,e,f,g}, {h}.
	label, nc := graph.ConnectedComponents(gc.G)
	if nc != 3 {
		t.Fatalf("G−B has %d components, want 3", nc)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("triangle split across components")
	}
	if label[3] != label[4] || label[4] != label[5] || label[5] != label[6] {
		t.Fatal("square split across components")
	}
	if label[7] == label[6] || label[7] == label[0] {
		t.Fatal("h not isolated in G−B")
	}
}

func TestBridgeMatchesOracle(t *testing.T) {
	cases := []*graph.Graph{
		pathGraph(30),  // every edge a bridge
		cycleGraph(30), // no bridges
		paperGraph(),
		randomGraph(200, 220, 3),    // sparse, bridge-rich, disconnected
		randomGraph(200, 2000, 4),   // dense, few bridges
		graph.NewBuilder(5).Build(), // edgeless
	}
	for ci, g := range cases {
		r := Bridge(g)
		want := graph.Bridges(g)
		wantSet := map[graph.Edge]bool{}
		for _, e := range want {
			wantSet[e] = true
		}
		if len(r.Bridges) != len(want) {
			t.Fatalf("case %d: %d bridges, oracle says %d", ci, len(r.Bridges), len(want))
		}
		for _, e := range r.Bridges {
			if !wantSet[e] {
				t.Fatalf("case %d: %v not a bridge", ci, e)
			}
		}
		checkEdgeConservation(t, g, r)
	}
}

func TestBridgeRoundsIsBFSDepth(t *testing.T) {
	r := Bridge(pathGraph(64))
	if r.Rounds != 64 {
		t.Fatalf("Rounds = %d, want 64 on a 64-path", r.Rounds)
	}
}

func TestRandPartitionShape(t *testing.T) {
	g := randomGraph(1000, 4000, 9)
	for _, k := range []int{1, 2, 4, 10} {
		r := Rand(g, k, 7)
		if len(r.Parts) != k {
			t.Fatalf("k=%d: got %d parts", k, len(r.Parts))
		}
		checkEdgeConservation(t, g, r)
		total := 0
		for _, p := range r.Parts {
			total += p.NumVertices()
		}
		if total != g.NumVertices() {
			t.Fatalf("k=%d: parts cover %d vertices", k, total)
		}
	}
}

func TestRandDeterministicUnderSeed(t *testing.T) {
	g := randomGraph(500, 2000, 1)
	a := Rand(g, 5, 42)
	b := Rand(g, 5, 42)
	for i := range a.Label {
		if a.Label[i] != b.Label[i] {
			t.Fatalf("labels differ at %d under same seed", i)
		}
	}
	c := Rand(g, 5, 43)
	same := 0
	for i := range a.Label {
		if a.Label[i] == c.Label[i] {
			same++
		}
	}
	if same == len(a.Label) {
		t.Fatal("different seeds produced identical partition")
	}
}

func TestRandBalance(t *testing.T) {
	g := pathGraph(100000)
	k := 10
	r := Rand(g, k, 11)
	for i, p := range r.Parts {
		n := p.NumVertices()
		if n < 100000/k*8/10 || n > 100000/k*12/10 {
			t.Fatalf("part %d holds %d vertices of %d", i, n, 100000)
		}
	}
}

func TestRandSparsification(t *testing.T) {
	// With k parts, an edge stays intra-part with probability 1/k, so the
	// induced subgraphs hold ≈ m/k edges — the sparsification MM-Rand
	// exploits. Allow generous slack.
	g := randomGraph(2000, 20000, 5)
	k := 10
	r := Rand(g, k, 3)
	frac := float64(r.PartEdges()) / float64(g.NumEdges())
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("intra-part edge fraction %.3f, want ≈ 1/k = 0.1", frac)
	}
}

func TestRandPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Rand(paperGraph(), 0, 1)
}

func TestDegkPaperExample(t *testing.T) {
	// Figure 1(d): DEG2 on the example graph. deg ≤ 2: {a,b,e,f,h};
	// deg > 2: {c,d,g}.
	g := paperGraph()
	r := Degk(g, 2)
	checkEdgeConservation(t, g, r)
	gl, gh := r.Parts[DegkLow], r.Parts[DegkHigh]
	if gl.NumVertices() != 5 || gh.NumVertices() != 3 {
		t.Fatalf("|V_L|=%d |V_H|=%d, want 5/3", gl.NumVertices(), gh.NumVertices())
	}
	// G_L edges: a-b, e-f. G_H edges: c-d, d-g. Cross: 5.
	if gl.NumEdges() != 2 {
		t.Fatalf("G_L edges = %d, want 2", gl.NumEdges())
	}
	if gh.NumEdges() != 2 {
		t.Fatalf("G_H edges = %d, want 2", gh.NumEdges())
	}
	if r.CrossEdges() != 5 {
		t.Fatalf("G_C edges = %d, want 5", r.CrossEdges())
	}
}

func TestDegkLowPartHasBoundedDegree(t *testing.T) {
	// Inside G_L every vertex degree is ≤ its degree in G ≤ k.
	for _, k := range []int{1, 2, 3} {
		g := randomGraph(800, 3200, 13)
		r := Degk(g, k)
		gl := r.Parts[DegkLow].G
		if d := gl.MaxDegree(); d > int32(k) {
			t.Fatalf("k=%d: G_L max degree %d", k, d)
		}
		checkEdgeConservation(t, g, r)
	}
}

func TestDegkExtremes(t *testing.T) {
	g := paperGraph()
	// k=0: everything is high-degree except isolated vertices.
	r0 := Degk(g, 0)
	if r0.Parts[DegkLow].NumVertices() != 0 {
		t.Fatalf("k=0: |V_L| = %d", r0.Parts[DegkLow].NumVertices())
	}
	// k=max degree: everything is low.
	rBig := Degk(g, int(g.MaxDegree()))
	if rBig.Parts[DegkHigh].NumVertices() != 0 {
		t.Fatalf("k=maxdeg: |V_H| = %d", rBig.Parts[DegkHigh].NumVertices())
	}
	if rBig.Parts[DegkLow].NumEdges() != g.NumEdges() {
		t.Fatal("k=maxdeg: G_L must hold all edges")
	}
}

func TestTechniqueString(t *testing.T) {
	names := map[Technique]string{
		TechBridge: "BRIDGE", TechRand: "RAND", TechDegk: "DEGk",
		TechMPX: "MPX", TechMultilevel: "MULTILEVEL", Technique(99): "UNKNOWN",
	}
	for tech, want := range names {
		if tech.String() != want {
			t.Fatalf("String(%d) = %q", tech, tech.String())
		}
	}
}

func TestMultilevelDecomposition(t *testing.T) {
	g := randomGraph(1500, 6000, 12)
	r := Multilevel(g, 6, 3)
	checkEdgeConservation(t, g, r)
	if len(r.Parts) != 6 {
		t.Fatalf("parts = %d", len(r.Parts))
	}
	if r.Technique.String() != "MULTILEVEL" {
		t.Fatalf("technique %q", r.Technique)
	}
	// Quality: far fewer cross edges than RAND with the same k.
	rnd := Rand(g, 6, 3)
	if r.CrossEdges() >= rnd.CrossEdges() {
		t.Fatalf("multilevel cross %d not below RAND %d", r.CrossEdges(), rnd.CrossEdges())
	}
}
