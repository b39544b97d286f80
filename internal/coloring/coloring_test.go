package coloring

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/par"
)

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

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

func bipartiteGraph(a, b int) *graph.Graph {
	bld := graph.NewBuilder(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			bld.AddEdge(int32(i), int32(a+j))
		}
	}
	return bld.Build()
}

func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := par.NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

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

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":       graph.NewBuilder(0).Build(),
		"isolated":    graph.NewBuilder(10).Build(),
		"path":        pathGraph(101),
		"cycle-odd":   cycleGraph(51),
		"complete":    completeGraph(17),
		"star":        starGraph(33),
		"bipartite":   bipartiteGraph(10, 15),
		"paper":       paperGraph(),
		"rand-sparse": randomGraph(500, 600, 1),
		"rand-dense":  randomGraph(300, 5000, 2),
	}
}

func engines() map[string]Engine {
	return map[string]Engine{
		"VB": NewVB(),
		"EB": NewEB(bsp.New()),
	}
}

func TestVerifyCatchesBadColorings(t *testing.T) {
	g := pathGraph(3)
	c := &Coloring{Color: []int32{0, 1, 0}}
	if err := Verify(g, c); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}
	// Monochromatic edge.
	c.Color = []int32{0, 0, 1}
	if Verify(g, c) == nil {
		t.Fatal("improper coloring accepted")
	}
	// Uncolored vertex.
	c.Color = []int32{0, 1, Uncolored}
	if Verify(g, c) == nil {
		t.Fatal("incomplete coloring accepted")
	}
	// Wrong length.
	if Verify(g, NewColoring(2)) == nil {
		t.Fatal("wrong-length coloring accepted")
	}
}

func TestEnginesProperOnCorpus(t *testing.T) {
	for ename, eng := range engines() {
		for gname, g := range testGraphs() {
			c, st := Fresh(g, eng, nil)
			if err := Verify(g, c); err != nil {
				t.Fatalf("%s/%s: %v", ename, gname, err)
			}
			if g.NumVertices() > 0 && st.Rounds == 0 {
				t.Fatalf("%s/%s: zero rounds", ename, gname)
			}
			// Never more than maxdeg+1 colors for these speculative
			// greedy schemes.
			if c.NumColors() > g.MaxDegree()+1 {
				t.Fatalf("%s/%s: %d colors for max degree %d",
					ename, gname, c.NumColors(), g.MaxDegree())
			}
		}
	}
}

func TestEnginesKnownChromatic(t *testing.T) {
	for ename, eng := range engines() {
		// Complete graph needs exactly n colors.
		c, _ := Fresh(completeGraph(17), eng, nil)
		if c.NumColors() != 17 {
			t.Fatalf("%s: K17 used %d colors", ename, c.NumColors())
		}
		// Star is 2-colorable and greedy achieves it.
		c, _ = Fresh(starGraph(20), eng, nil)
		if c.NumColors() > 2 {
			t.Fatalf("%s: star used %d colors", ename, c.NumColors())
		}
	}
}

func TestEnginesDeterministic(t *testing.T) {
	g := randomGraph(400, 2000, 3)
	for ename, mk := range map[string]func() Engine{
		"VB": func() Engine { return NewVB() },
		"EB": func() Engine { return NewEB(bsp.New()) },
	} {
		a, _ := Fresh(g, mk(), nil)
		b, _ := Fresh(g, mk(), nil)
		for i := range a.Color {
			if a.Color[i] != b.Color[i] {
				t.Fatalf("%s: colors differ at %d across runs", ename, i)
			}
		}
	}
}

func TestRepairKeepsExistingColors(t *testing.T) {
	g := pathGraph(6)
	for ename, eng := range engines() {
		color := []int32{0, 1, Uncolored, Uncolored, 1, 0}
		eng.Repair(g, color, []int32{2, 3}, nil)
		c := &Coloring{Color: color}
		if err := Verify(g, c); err != nil {
			t.Fatalf("%s: repair produced invalid coloring: %v", ename, err)
		}
		if color[0] != 0 || color[1] != 1 || color[4] != 1 || color[5] != 0 {
			t.Fatalf("%s: repair modified fixed colors: %v", ename, color)
		}
	}
}

func TestVBWindowOfOne(t *testing.T) {
	// A clique hidden in a sparse graph: K9 plus 100 disjoint edges, 209
	// vertices of average degree 1 (the FORBIDDEN window VB once sized
	// from it, hence the name). VB must still color the clique with
	// exactly its chromatic number.
	b := graph.NewBuilder(209)
	for i := int32(0); i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			b.AddEdge(i, j)
		}
	}
	for v := int32(9); v < 209; v += 2 {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	c, _ := Fresh(g, NewVB(), nil)
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 9 {
		t.Fatalf("%d colors, want 9", c.NumColors())
	}
}

func TestEBKernelAccounting(t *testing.T) {
	m := bsp.New()
	eng := NewEB(m)
	_, st := Fresh(cycleGraph(100), eng, nil)
	if m.Stats().Launches != int64(4*st.Rounds) {
		t.Fatalf("launches %d, want 4 per round × %d", m.Stats().Launches, st.Rounds)
	}
}

func TestDecomposedColoringsProper(t *testing.T) {
	for ename, eng := range engines() {
		for gname, g := range testGraphs() {
			runs := []struct {
				name string
				run  func() (*Coloring, Report)
			}{
				{"COLOR-Bridge", func() (*Coloring, Report) { return ColorBridge(g, eng, nil) }},
				{"COLOR-Rand", func() (*Coloring, Report) { return ColorRand(g, 4, 3, eng, nil) }},
				{"COLOR-Degk", func() (*Coloring, Report) { return ColorDegk(g, 2, eng, nil) }},
			}
			for _, r := range runs {
				c, rep := r.run()
				if err := Verify(g, c); err != nil {
					t.Fatalf("%s/%s/%s: %v", r.name, ename, gname, err)
				}
				if rep.Strategy != r.name {
					t.Fatalf("report strategy %q, want %q", rep.Strategy, r.name)
				}
			}
		}
	}
}

func TestColorDegkNoRecoloring(t *testing.T) {
	// The paper's key claim for COLOR-Degk: once G_H is colored, no
	// conflicts arise, and G_L needs at most k+1 extra colors. Every G_L
	// vertex color must sit in [maxC_H+1, maxC_H+k+1].
	g := paperGraph() // V_H = {c,d,g}, V_L = {a,b,e,f,h}
	eng := NewVB()
	c, rep := ColorDegk(g, 2, eng, nil)
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	if rep.Conflicted != 0 {
		t.Fatalf("COLOR-Degk reported %d conflicts", rep.Conflicted)
	}
	// High part colors < base; low part colors ≥ base.
	var baseMax int32 = -1
	for _, v := range []int32{2, 3, 6} {
		if c.Color[v] > baseMax {
			baseMax = c.Color[v]
		}
	}
	for _, v := range []int32{0, 1, 4, 5, 7} {
		if c.Color[v] <= baseMax {
			t.Fatalf("low vertex %d color %d not above high palette %d", v, c.Color[v], baseMax)
		}
		if c.Color[v] > baseMax+3 {
			t.Fatalf("low vertex %d color %d beyond k+1 extra colors", v, c.Color[v])
		}
	}
}

func TestColorRandConflictsReported(t *testing.T) {
	// With a dense graph and 2 partitions there must be cross conflicts to
	// recolor (the paper measured ~45% of vertices with two partitions).
	g := randomGraph(500, 6000, 7)
	_, rep := ColorRand(g, 2, 1, NewVB(), nil)
	if rep.Conflicted == 0 {
		t.Fatal("COLOR-Rand reported no conflicts on a dense graph")
	}
}

func TestColorBridgeFewColorsOnTrees(t *testing.T) {
	// On a tree every edge is a bridge, G_c is edgeless → everything gets
	// color 0 first, then bridges force a repair. Greedy speculative repair
	// may use one color beyond the chromatic number 2, never more (degree
	// ≤ 2 bounds the palette at 3).
	g := pathGraph(40)
	c, _ := ColorBridge(g, NewVB(), nil)
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	if c.NumColors() > 3 {
		t.Fatalf("tree colored with %d colors", c.NumColors())
	}
}

func TestBoundedPaletteDefensiveWiden(t *testing.T) {
	// speculate from a base above 0 on vertices of degree 4, denser than
	// anything COLOR-Degk's G_L phase hands it (the name dates from a
	// fixed-size color window there): the coloring must be proper and
	// never dip below the base.
	g := completeGraph(5)
	color := make([]int32, 5)
	for i := range color {
		color[i] = Uncolored
	}
	work := []int32{0, 1, 2, 3, 4}
	speculate(g, color, work, 10, par.Range, nil)
	c := &Coloring{Color: color}
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	for _, cv := range color {
		if cv < 10 {
			t.Fatalf("color %d below palette base", cv)
		}
	}
}

func TestNumColors(t *testing.T) {
	c := &Coloring{Color: []int32{0, 3, 1}}
	if c.NumColors() != 4 {
		t.Fatalf("NumColors = %d", c.NumColors())
	}
	if NewColoring(0).NumColors() != 0 {
		t.Fatal("empty coloring NumColors != 0")
	}
}
