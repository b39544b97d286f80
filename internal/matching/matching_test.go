package matching

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

// testGraphs is the shared corpus for maximality checks.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":       graph.NewBuilder(0).Build(),
		"isolated":    graph.NewBuilder(10).Build(),
		"single":      pathGraph(2),
		"path":        pathGraph(101),
		"cycle-even":  cycleGraph(50),
		"cycle-odd":   cycleGraph(51),
		"complete":    completeGraph(20),
		"star":        starGraph(30),
		"paper":       paperGraph(),
		"rand-sparse": randomGraph(500, 600, 1),
		"rand-dense":  randomGraph(300, 5000, 2),
	}
}

func TestVerifyCatchesBadMatchings(t *testing.T) {
	g := pathGraph(4)
	// Valid maximal matching: (0,1), (2,3).
	m := NewMatching(4)
	m.Mate = []int32{1, 0, 3, 2}
	if err := Verify(g, m); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	// Asymmetric.
	m.Mate = []int32{1, Unmatched, Unmatched, Unmatched}
	if Verify(g, m) == nil {
		t.Fatal("asymmetric matching accepted")
	}
	// Non-edge pair.
	m.Mate = []int32{2, Unmatched, 0, Unmatched}
	if Verify(g, m) == nil {
		t.Fatal("non-edge pair accepted")
	}
	// Not maximal (edge {2,3} free).
	m.Mate = []int32{1, 0, Unmatched, Unmatched}
	if Verify(g, m) == nil {
		t.Fatal("non-maximal matching accepted")
	}
	// Out of range.
	m.Mate = []int32{9, 0, 3, 2}
	if Verify(g, m) == nil {
		t.Fatal("out-of-range mate accepted")
	}
	// Wrong length.
	if Verify(g, NewMatching(3)) == nil {
		t.Fatal("wrong-length matching accepted")
	}
}

func TestGMMaximalOnCorpus(t *testing.T) {
	for name, g := range testGraphs() {
		m, st := GM(g)
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Matched != m.Cardinality() {
			t.Fatalf("%s: Stats.Matched %d != cardinality %d", name, st.Matched, m.Cardinality())
		}
	}
}

func TestGMKnownCardinalities(t *testing.T) {
	// Path on 101 vertices: GM matches greedily from the low end →
	// (0,1),(2,3),... = 50 edges.
	m, _ := GM(pathGraph(101))
	if m.Cardinality() != 50 {
		t.Fatalf("path cardinality %d, want 50", m.Cardinality())
	}
	// Star: exactly one edge.
	m, _ = GM(starGraph(30))
	if m.Cardinality() != 1 {
		t.Fatalf("star cardinality %d, want 1", m.Cardinality())
	}
	// Complete graph on 20: perfect matching of 10 edges.
	m, _ = GM(completeGraph(20))
	if m.Cardinality() != 10 {
		t.Fatalf("K20 cardinality %d, want 10", m.Cardinality())
	}
}

func TestGMVainTendencyOnPath(t *testing.T) {
	// The documented pathology: on a path, GM matches one edge per round
	// from the chain's low end, so rounds grow linearly.
	_, st := GM(pathGraph(64))
	if st.Rounds < 30 {
		t.Fatalf("GM on a 64-path took %d rounds; expected the vain tendency (≈32)", st.Rounds)
	}
}

func TestGMDeterministic(t *testing.T) {
	g := randomGraph(400, 2000, 3)
	m1, s1 := GM(g)
	m2, s2 := GM(g)
	if s1.Rounds != s2.Rounds || s1.Matched != s2.Matched {
		t.Fatal("GM stats differ across runs")
	}
	for i := range m1.Mate {
		if m1.Mate[i] != m2.Mate[i] {
			t.Fatalf("GM mate differs at %d", i)
		}
	}
}

func TestLMAXMaximalOnCorpus(t *testing.T) {
	machine := bsp.New()
	for name, g := range testGraphs() {
		m, st := LMAX(g, machine, 42)
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Matched != m.Cardinality() {
			t.Fatalf("%s: Stats.Matched %d != cardinality %d", name, st.Matched, m.Cardinality())
		}
	}
}

func TestLMAXIdChainVainTendency(t *testing.T) {
	// With id-derived edge weights LMAX shares GM's vain tendency on
	// id-ordered chains (the paper: "GM and LMAX follow a similar model
	// ... a similar trend"): on an ordered path the heaviest edge resolves
	// from the top one match per round.
	machine := bsp.New()
	_, st := LMAX(pathGraph(256), machine, 7)
	if st.Rounds < 100 {
		t.Fatalf("LMAX took %d rounds on an ordered 256-path; expected ≈ n/2 id-chain rounds", st.Rounds)
	}
}

func TestLMAXKernelAccounting(t *testing.T) {
	machine := bsp.New()
	_, st := LMAX(cycleGraph(100), machine, 1)
	s := machine.Stats()
	if s.Launches != int64(3*st.Rounds) {
		t.Fatalf("launches = %d, want 3 per round × %d rounds", s.Launches, st.Rounds)
	}
}

func TestLMAXDeterministicUnderSeed(t *testing.T) {
	g := randomGraph(300, 1500, 9)
	m1, _ := LMAX(g, bsp.New(), 5)
	m2, _ := LMAX(g, bsp.New(), 5)
	for i := range m1.Mate {
		if m1.Mate[i] != m2.Mate[i] {
			t.Fatalf("LMAX differs at %d under same seed", i)
		}
	}
}

func TestDecomposedMatchingsMaximal(t *testing.T) {
	machine := bsp.New()
	solvers := map[string]Algorithm{
		"GM":   GMSolver(),
		"LMAX": LMAXSolver(machine, 11),
	}
	for sname, mm := range solvers {
		for gname, g := range testGraphs() {
			runs := []struct {
				name string
				run  func() (*Matching, Report)
			}{
				{"MM-Bridge", func() (*Matching, Report) { return MMBridge(g, mm, nil) }},
				{"MM-Rand", func() (*Matching, Report) { return MMRand(g, 4, 3, mm, nil) }},
				{"MM-Degk", func() (*Matching, Report) { return MMDegk(g, 2, mm, nil) }},
			}
			for _, r := range runs {
				m, rep := r.run()
				if err := Verify(g, m); err != nil {
					t.Fatalf("%s/%s/%s: %v", r.name, sname, gname, err)
				}
				if rep.Strategy != r.name {
					t.Fatalf("report strategy %q, want %q", rep.Strategy, r.name)
				}
			}
		}
	}
}

func TestMMRandAvoidsVainTendency(t *testing.T) {
	// The paper's headline MM effect: on chain-heavy graphs the random
	// decomposition needs far fewer total rounds than plain GM.
	g := pathGraph(4096)
	_, gmStats := GM(g)
	_, rep := MMRand(g, 10, 1, GMSolver(), nil)
	if rep.Rounds >= gmStats.Rounds {
		t.Fatalf("MM-Rand rounds %d not below GM rounds %d", rep.Rounds, gmStats.Rounds)
	}
}

func TestReportTotal(t *testing.T) {
	g := randomGraph(500, 2500, 4)
	_, rep := MMRand(g, 4, 9, GMSolver(), nil)
	if rep.Total() != rep.Decomp+rep.Solve {
		t.Fatal("Total != Decomp + Solve")
	}
	if rep.Decomp <= 0 || rep.Solve <= 0 {
		t.Fatalf("degenerate report %+v", rep)
	}
}

func TestCardinalityEmptyAndNew(t *testing.T) {
	m := NewMatching(5)
	if m.Cardinality() != 0 {
		t.Fatal("fresh matching has nonzero cardinality")
	}
	for _, v := range m.Mate {
		if v != Unmatched {
			t.Fatal("fresh matching not all Unmatched")
		}
	}
}
