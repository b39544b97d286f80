package coloring

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/par"
)

func TestLosesTotalOrder(t *testing.T) {
	// loses must be a strict total order: antisymmetric and never
	// reflexive, so exactly one endpoint of every conflict recolors.
	if err := quick.Check(func(a, b int32) bool {
		if a == b {
			return !loses(a, b)
		}
		return loses(a, b) != loses(b, a)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatticeColoringConvergesFast(t *testing.T) {
	// The motivating pathology for the hashed tie-break: a row-major
	// numbered grid. Literal lowest-id resolution needs O(side) rounds;
	// hashed priorities keep it logarithmic-ish.
	const side = 80
	b := graph.NewBuilder(side * side)
	id := func(i, j int) int32 { return int32(i*side + j) }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if j+1 < side {
				b.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < side {
				b.AddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	g := b.Build()
	c, st := NewVB().Fresh(g)
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	if st.Rounds > 25 {
		t.Fatalf("lattice took %d rounds; wave-front pathology is back", st.Rounds)
	}
}

func TestConsecutiveChainColoringConvergesFast(t *testing.T) {
	// Same pathology on a consecutive-id path, through speculate from a
	// base above 0, as COLOR-Degk's G_L phase runs it.
	g := pathGraph(5000)
	color := make([]int32, 5000)
	for i := range color {
		color[i] = Uncolored
	}
	work := make([]int32, 5000)
	par.Iota(work)
	st := speculate(g, color, work, 10, par.Range, nil)
	if err := Verify(g, &Coloring{Color: color}); err != nil {
		t.Fatal(err)
	}
	if st.Rounds > 30 {
		t.Fatalf("chain took %d rounds; wave-front pathology is back", st.Rounds)
	}
}

func TestColorDegkMaskedKeepsPalettesDisjoint(t *testing.T) {
	// Random graph: high vertices < base, low vertices in
	// [base, base+k+1).
	g := randomGraph(600, 2400, 5)
	c, _ := ColorDegk(g, 2, NewVB(), nil)
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	var base int32 = -1
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) > 2 && c.Color[v] > base {
			base = c.Color[v]
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(int32(v)) <= 2 {
			if c.Color[v] <= base {
				t.Fatalf("low vertex %d color %d inside high palette (max %d)", v, c.Color[v], base)
			}
			if c.Color[v] > base+3 {
				t.Fatalf("low vertex %d color %d beyond k+1 palette", v, c.Color[v])
			}
		}
	}
}

func TestColorBiconnProper(t *testing.T) {
	for name, g := range testGraphs() {
		for ename, eng := range engines() {
			c, rep := ColorBiconn(g, eng, nil)
			if err := Verify(g, c); err != nil {
				t.Fatalf("%s/%s: %v", ename, name, err)
			}
			if rep.Strategy != "COLOR-Biconn" {
				t.Fatalf("strategy %q", rep.Strategy)
			}
		}
	}
}

func TestColorBiconnBowtieSharesPalette(t *testing.T) {
	// Two triangles sharing vertex 2: the interiors of both triangles
	// color with the same palette {0,1}; the articulation vertex takes a
	// third color at worst.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(2, 4)
	g := b.Build()
	c, rep := ColorBiconn(g, NewVB(), nil)
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	if rep.Conflicted != 1 {
		t.Fatalf("expected 1 articulation vertex, got %d", rep.Conflicted)
	}
	if c.NumColors() > 3 {
		t.Fatalf("bowtie used %d colors", c.NumColors())
	}
}
