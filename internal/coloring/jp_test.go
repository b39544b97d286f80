package coloring

import "testing"

func TestJPProperOnCorpus(t *testing.T) {
	for _, ord := range []Ordering{OrderRandom, OrderLargestFirst, OrderSmallestLast} {
		eng := NewJP(ord, 7)
		for gname, g := range testGraphs() {
			c, st := Fresh(g, eng, nil)
			if err := Verify(g, c); err != nil {
				t.Fatalf("%s/%s: %v", eng.Name(), gname, err)
			}
			if g.NumVertices() > 0 && st.Rounds == 0 {
				t.Fatalf("%s/%s: zero rounds", eng.Name(), gname)
			}
			if c.NumColors() > g.MaxDegree()+1 {
				t.Fatalf("%s/%s: %d colors for Δ=%d", eng.Name(), gname, c.NumColors(), g.MaxDegree())
			}
		}
	}
}

func TestJPNamesAndOrderings(t *testing.T) {
	if NewJP(OrderRandom, 1).Name() != "JP-R" ||
		NewJP(OrderLargestFirst, 1).Name() != "JP-LF" ||
		NewJP(OrderSmallestLast, 1).Name() != "JP-SL" {
		t.Fatal("JP names wrong")
	}
}

func TestJPLFColorsHubFirst(t *testing.T) {
	// On a star, LF gives the center the highest priority, so it takes
	// color 0 and every leaf takes 1 — the optimal 2-coloring — in 2
	// rounds.
	g := starGraph(40)
	c, st := Fresh(g, NewJP(OrderLargestFirst, 3), nil)
	if err := Verify(g, c); err != nil {
		t.Fatal(err)
	}
	if c.Color[0] != 0 {
		t.Fatalf("center color %d, want 0", c.Color[0])
	}
	if c.NumColors() != 2 {
		t.Fatalf("star used %d colors", c.NumColors())
	}
	if st.Rounds != 2 {
		t.Fatalf("star took %d rounds, want 2", st.Rounds)
	}
}

func TestJPRepairKeepsFixedColors(t *testing.T) {
	g := pathGraph(6)
	color := []int32{0, 1, Uncolored, Uncolored, 1, 0}
	NewJP(OrderRandom, 5).Repair(g, color, []int32{2, 3}, nil)
	if err := Verify(g, &Coloring{Color: color}); err != nil {
		t.Fatal(err)
	}
	if color[0] != 0 || color[1] != 1 || color[4] != 1 || color[5] != 0 {
		t.Fatalf("fixed colors changed: %v", color)
	}
}

func TestJPDeterministic(t *testing.T) {
	g := randomGraph(300, 1500, 9)
	a, _ := Fresh(g, NewJP(OrderSmallestLast, 4), nil)
	b, _ := Fresh(g, NewJP(OrderSmallestLast, 4), nil)
	for i := range a.Color {
		if a.Color[i] != b.Color[i] {
			t.Fatalf("JP differs at %d under same seed", i)
		}
	}
}

func TestJPWorksAsDecompositionEngine(t *testing.T) {
	// JP satisfies Engine, so the decomposition algorithms accept it.
	g := randomGraph(400, 1600, 2)
	eng := NewJP(OrderRandom, 6)
	for _, run := range []func() (*Coloring, Report){
		func() (*Coloring, Report) { return ColorBridge(g, eng, nil) },
		func() (*Coloring, Report) { return ColorRand(g, 4, 1, eng, nil) },
		func() (*Coloring, Report) { return ColorDegk(g, 2, eng, nil) },
	} {
		c, _ := run()
		if err := Verify(g, c); err != nil {
			t.Fatal(err)
		}
	}
}
