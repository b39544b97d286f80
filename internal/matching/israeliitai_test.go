package matching

import "testing"

func TestIsraeliItaiMaximalOnCorpus(t *testing.T) {
	for name, g := range testGraphs() {
		m, st := IsraeliItai(g, 11)
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Matched != m.Cardinality() {
			t.Fatalf("%s: Stats.Matched %d != %d", name, st.Matched, m.Cardinality())
		}
	}
}

func TestIsraeliItaiNoVainTendency(t *testing.T) {
	// Unlike GM, the randomized proposals finish a long ordered path in
	// O(log n)-ish rounds — the contrast that isolates GM's ordering
	// pathology.
	_, ii := IsraeliItai(pathGraph(4096), 3)
	_, gm := GM(pathGraph(4096))
	if ii.Rounds*10 > gm.Rounds {
		t.Fatalf("Israeli–Itai rounds %d not far below GM's %d", ii.Rounds, gm.Rounds)
	}
}

func TestIsraeliItaiDeterministicUnderSeed(t *testing.T) {
	g := randomGraph(400, 2000, 5)
	a, _ := IsraeliItai(g, 9)
	b, _ := IsraeliItai(g, 9)
	for i := range a.Mate {
		if a.Mate[i] != b.Mate[i] {
			t.Fatalf("differs at %d under same seed", i)
		}
	}
}

func TestIsraeliItaiAsDecompositionSubroutine(t *testing.T) {
	g := randomGraph(500, 2500, 7)
	for _, run := range []func() (*Matching, Report){
		func() (*Matching, Report) { return MMBridge(g, IsraeliItaiSolver(2), nil) },
		func() (*Matching, Report) { return MMRand(g, 5, 2, IsraeliItaiSolver(2), nil) },
		func() (*Matching, Report) { return MMDegk(g, 2, IsraeliItaiSolver(2), nil) },
	} {
		m, _ := run()
		if err := Verify(g, m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGreedyRandomMaximalOnCorpus(t *testing.T) {
	for name, g := range testGraphs() {
		m, st := GreedyRandom(g, 5)
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Matched != m.Cardinality() {
			t.Fatalf("%s: Stats.Matched %d != %d", name, st.Matched, m.Cardinality())
		}
	}
}

func TestGreedyRandomNoVainTendency(t *testing.T) {
	// Random edge priorities: the dependence depth on a chain is
	// logarithmic, unlike GM's lowest-id modification.
	_, gr := GreedyRandom(pathGraph(4096), 7)
	_, gm := GM(pathGraph(4096))
	if gr.Rounds*10 > gm.Rounds {
		t.Fatalf("GreedyRandom rounds %d not far below GM's %d", gr.Rounds, gm.Rounds)
	}
}

func TestGreedyRandomDeterministicAndSeedSensitive(t *testing.T) {
	g := randomGraph(400, 2000, 9)
	a, _ := GreedyRandom(g, 3)
	b, _ := GreedyRandom(g, 3)
	for i := range a.Mate {
		if a.Mate[i] != b.Mate[i] {
			t.Fatalf("differs at %d under same seed", i)
		}
	}
	c, _ := GreedyRandom(g, 4)
	same := true
	for i := range a.Mate {
		if a.Mate[i] != c.Mate[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical matchings (suspicious)")
	}
}
