package mis

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
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

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":       graph.NewBuilder(0).Build(),
		"isolated":    graph.NewBuilder(10).Build(),
		"path":        pathGraph(101),
		"cycle":       cycleGraph(64),
		"complete":    completeGraph(17),
		"star":        starGraph(33),
		"paper":       paperGraph(),
		"rand-sparse": randomGraph(500, 600, 1),
		"rand-dense":  randomGraph(300, 5000, 2),
	}
}

func TestVerifyCatchesBadSets(t *testing.T) {
	g := pathGraph(4)
	s := NewIndepSet(4)
	s.In = []bool{true, false, true, false}
	if err := Verify(g, s); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
	// Adjacent members.
	s.In = []bool{true, true, false, true}
	if Verify(g, s) == nil {
		t.Fatal("dependent set accepted")
	}
	// Not maximal: {0} leaves 2,3 uncovered... {0} covers 1 only.
	s.In = []bool{true, false, false, false}
	if Verify(g, s) == nil {
		t.Fatal("non-maximal set accepted")
	}
	// Wrong length.
	if Verify(g, NewIndepSet(3)) == nil {
		t.Fatal("wrong-length set accepted")
	}
}

func TestLubyMaximalOnCorpus(t *testing.T) {
	for name, g := range testGraphs() {
		s, st := Luby(g, 42)
		if err := Verify(g, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() > 0 && st.Rounds == 0 {
			t.Fatalf("%s: zero rounds on non-empty graph", name)
		}
	}
}

func TestLubyKnownSizes(t *testing.T) {
	// Complete graph: MIS size exactly 1.
	s, _ := Luby(completeGraph(17), 3)
	if s.Size() != 1 {
		t.Fatalf("K17 MIS size %d", s.Size())
	}
	// Isolated vertices: all in.
	s, _ = Luby(graph.NewBuilder(10).Build(), 3)
	if s.Size() != 10 {
		t.Fatalf("isolated MIS size %d", s.Size())
	}
	// Path on n: MIS size between ⌈n/3⌉ and ⌈n/2⌉.
	n := int64(101)
	s, _ = Luby(pathGraph(int(n)), 3)
	if s.Size() < (n+2)/3 || s.Size() > (n+1)/2 {
		t.Fatalf("path MIS size %d outside [%d,%d]", s.Size(), (n+2)/3, (n+1)/2)
	}
}

func TestLubyLogarithmicRounds(t *testing.T) {
	g := randomGraph(20000, 100000, 7)
	_, st := Luby(g, 1)
	if st.Rounds > 40 {
		t.Fatalf("Luby took %d rounds; expected O(log n)", st.Rounds)
	}
}

func TestLubyDeterministicUnderSeed(t *testing.T) {
	g := randomGraph(400, 2000, 5)
	a, _ := Luby(g, 9)
	b, _ := Luby(g, 9)
	for i := range a.In {
		if a.In[i] != b.In[i] {
			t.Fatalf("Luby differs at %d under same seed", i)
		}
	}
}

func TestLubyGPUMatchesCPUSemantics(t *testing.T) {
	g := randomGraph(300, 1200, 11)
	machine := bsp.New()
	sGPU, stGPU := LubyGPU(g, machine, 4)
	sCPU, stCPU := Luby(g, 4)
	// Same seed → identical deterministic outcome on both engines.
	for i := range sGPU.In {
		if sGPU.In[i] != sCPU.In[i] {
			t.Fatalf("GPU and CPU Luby differ at %d", i)
		}
	}
	if stGPU.Rounds != stCPU.Rounds {
		t.Fatal("round counts differ between engines")
	}
	if machine.Stats().Launches != int64(3*stGPU.Rounds) {
		t.Fatalf("launches %d, want 3 per round", machine.Stats().Launches)
	}
}

func TestGreedyMaximalOnCorpus(t *testing.T) {
	for name, g := range testGraphs() {
		s, _ := Greedy(g, 13)
		if err := Verify(g, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestKPDeg2OnPathsAndCycles(t *testing.T) {
	for _, g := range []*graph.Graph{
		pathGraph(1), pathGraph(2), pathGraph(100), cycleGraph(3),
		cycleGraph(100), cycleGraph(101), graph.NewBuilder(7).Build(),
	} {
		s, _ := Fresh(g, KPSolver(), nil)
		if err := Verify(g, s); err != nil {
			t.Fatal(err)
		}
	}
	// Union of paths and cycles.
	b := graph.NewBuilder(12)
	for i := 0; i < 4; i++ {
		b.AddEdge(int32(i), int32((i+1)%5)) // cycle piece 0..4
	}
	b.AddEdge(4, 0)
	b.AddEdge(6, 7)
	b.AddEdge(7, 8) // path 6-7-8
	g := b.Build()
	s, _ := Fresh(g, KPSolver(), nil)
	if err := Verify(g, s); err != nil {
		t.Fatal(err)
	}
}

func TestKPDeg2FewerRoundsThanVainChain(t *testing.T) {
	// Rounds should be logarithmic-ish on a long path, not linear.
	_, st := Fresh(pathGraph(100000), KPSolver(), nil)
	if st.Rounds > 60 {
		t.Fatalf("KP took %d rounds on a 100k-path", st.Rounds)
	}
}

func TestDecomposedMISMaximal(t *testing.T) {
	machine := bsp.New()
	solvers := map[string]Solver{
		"Luby":    LubySolver(21),
		"LubyGPU": LubyGPUSolver(machine, 21),
	}
	for sname, alg := range solvers {
		for gname, g := range testGraphs() {
			runs := []struct {
				name string
				run  func() (*IndepSet, Report)
			}{
				{"MIS-Bridge", func() (*IndepSet, Report) { return MISBridge(g, alg, nil) }},
				{"MIS-Rand", func() (*IndepSet, Report) { return MISRand(g, 4, 3, alg, nil) }},
				{"MIS-Deg2", func() (*IndepSet, Report) { return MISDeg2(g, alg, nil) }},
			}
			for _, r := range runs {
				s, rep := r.run()
				if err := Verify(g, s); err != nil {
					t.Fatalf("%s/%s/%s: %v", r.name, sname, gname, err)
				}
				if rep.Strategy != r.name {
					t.Fatalf("report strategy %q, want %q", rep.Strategy, r.name)
				}
			}
		}
	}
}

func TestMISBridgeOrderHeuristic(t *testing.T) {
	// On a path every edge is a bridge: the bridge graph holds all edges,
	// H is empty (every vertex is a bridge endpoint). H (avg degree 0) runs
	// first.
	g := pathGraph(50)
	_, rep := MISBridge(g, LubySolver(1), nil)
	if !rep.SparserFirst {
		t.Fatal("expected the empty H side to be chosen first on a path")
	}
}

func TestMISDeg2DelegatesLowDegreePart(t *testing.T) {
	// A pure path is entirely degree ≤ 2: the remainder must be empty, so
	// the general solver should receive no active work — everything is
	// decided by the bounded-degree phase.
	work := 0
	inner := LubySolver(1)
	spy := func(g *graph.Graph, status []State, set *IndepSet, active []int32, sp *trace.Span) Stats {
		work += len(active)
		return inner(g, status, set, active, sp)
	}
	g := pathGraph(200)
	s, _ := MISDeg2(g, spy, nil)
	if err := Verify(g, s); err != nil {
		t.Fatal(err)
	}
	if work != 0 {
		t.Fatalf("general solver received %d active vertices on a pure degree-2 graph", work)
	}
}

func TestReportTotalMIS(t *testing.T) {
	g := randomGraph(400, 2000, 8)
	_, rep := MISDeg2(g, LubySolver(2), nil)
	if rep.Total() != rep.Decomp+rep.Solve {
		t.Fatal("Total != Decomp + Solve")
	}
}

func TestSizeEmpty(t *testing.T) {
	if NewIndepSet(4).Size() != 0 {
		t.Fatal("fresh set not empty")
	}
}
