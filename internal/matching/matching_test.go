package matching

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

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

// unsortedTriangle writes a triangle as a raw .scsr file, patches its
// adjacency lists to 0:[2,1], 1:[0,2], 2:[1,0], and loads it back. The
// raw load paths check offsets and id range but not list order, so the
// load succeeds.
func unsortedTriangle(t *testing.T) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tri.scsr")
	if err := graph.WriteBinaryFile(path, completeGraph(3), graph.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	adj := binary.LittleEndian.Uint64(b[56:64]) // adjacency-section start
	for i, w := range []uint32{2, 1, 0, 2, 1, 0} {
		binary.LittleEndian.PutUint32(b[adj+4*uint64(i):], w)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := graph.LoadFile(path)
	if err != nil {
		t.Fatalf("loading the patched triangle: %v", err)
	}
	return g
}

// TestUnsortedAdjacencyPanicsInsteadOfHanging: both cursor-based solvers
// rely on sorted adjacency lists. On the patched triangle every vertex
// picks a different neighbour in a cycle, no pair ever handshakes, and
// without a progress guard the round loop would spin forever.
func TestUnsortedAdjacencyPanicsInsteadOfHanging(t *testing.T) {
	g := unsortedTriangle(t)
	solvers := map[string]Algorithm{
		"GM":   GMSolver(),
		"LMAX": LMAXSolver(bsp.New()),
	}
	for name, mm := range solvers {
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			mm(g, nil)
		}()
		select {
		case r := <-done:
			if err, _ := r.(error); err == nil || !strings.Contains(err.Error(), "adjacency lists must be sorted") {
				t.Fatalf("%s: recovered %v, want a panic naming the sorted-list invariant", name, r)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: still running after 1s on unsorted adjacency lists", name)
		}
	}
}

// lmaxReference is LMAX by its definition, run sequentially: each round
// every live vertex rescans its whole adjacency for its highest-id
// unmatched neighbour, mutual picks match, and vertices that matched or
// found no unmatched neighbour retire. It returns the mate array and the
// run's Stats.
func lmaxReference(g *graph.Graph) ([]int32, Stats) {
	n := g.NumVertices()
	mate := make([]int32, n)
	live := make([]bool, n)
	cand := make([]int32, n)
	remaining := 0
	for v := range mate {
		mate[v] = Unmatched
		live[v] = g.Degree(int32(v)) > 0
		if live[v] {
			remaining++
		}
	}
	var st Stats
	for remaining > 0 {
		st.Rounds++
		for v := range cand {
			cand[v] = Unmatched
			if !live[v] {
				continue
			}
			for _, w := range g.Neighbors(int32(v)) {
				if mate[w] == Unmatched && w > cand[v] {
					cand[v] = w
				}
			}
		}
		for v := range cand {
			if w := cand[v]; live[v] && w != Unmatched && int32(v) < w && cand[w] == int32(v) {
				mate[v], mate[w] = w, int32(v)
				st.Matched++
			}
		}
		for v := range live {
			if live[v] && (mate[v] != Unmatched || cand[v] == Unmatched) {
				live[v] = false
				remaining--
			}
		}
		st.PerRound = append(st.PerRound, st.Matched)
	}
	return mate, st
}

// proposalReference is the proposal/handshake loop GM and GreedyRandom
// define, run serially with plain loops: each round every active vertex
// picks afresh, mutual picks match, and vertices that matched or picked
// no one leave the active list. It returns the mate array and the run's
// Stats.
func proposalReference(g *graph.Graph, pick func(v int32, mate []int32) int32) ([]int32, Stats) {
	n := g.NumVertices()
	mate := make([]int32, n)
	prop := make([]int32, n)
	var active []int32
	for v := range mate {
		mate[v] = Unmatched
		if g.Degree(int32(v)) > 0 {
			active = append(active, int32(v))
		}
	}
	var st Stats
	for len(active) > 0 {
		st.Rounds++
		for _, v := range active {
			prop[v] = pick(v, mate)
		}
		for _, v := range active {
			if w := prop[v]; w != Unmatched && v < w && prop[w] == v {
				mate[v], mate[w] = w, v
				st.Matched++
			}
		}
		var next []int32
		for _, v := range active {
			if mate[v] == Unmatched && prop[v] != Unmatched {
				next = append(next, v)
			}
		}
		active = next
		st.PerRound = append(st.PerRound, st.Matched)
	}
	return mate, st
}

// gmReference is GM by its definition: each active vertex proposes to its
// lowest-id unmatched neighbour, found by a fresh scan every round.
func gmReference(g *graph.Graph) ([]int32, Stats) {
	return proposalReference(g, func(v int32, mate []int32) int32 {
		for _, w := range g.Neighbors(v) {
			if mate[w] == Unmatched {
				return w
			}
		}
		return Unmatched
	})
}

// greedyRandomReference is GreedyRandom by its definition: each active
// vertex points at its minimum-(priority, id) live edge, found by a fresh
// scan every round.
func greedyRandomReference(g *graph.Graph, seed uint64) ([]int32, Stats) {
	return proposalReference(g, func(v int32, mate []int32) int32 {
		best := Unmatched
		var bestP uint64
		for _, w := range g.Neighbors(v) {
			p := par.Hash2(seed, int64(v), int64(w))
			if mate[w] == Unmatched && (best == Unmatched || p < bestP || (p == bestP && w < best)) {
				best, bestP = w, p
			}
		}
		return best
	})
}

// referenceGraphs is testGraphs plus inputs long enough to split into
// several chunks: four random graphs and a 4,096-vertex path, GM's
// vain-tendency worst case.
func referenceGraphs() map[string]*graph.Graph {
	graphs := testGraphs()
	for i, shape := range [][2]int{{5000, 6000}, {6000, 30000}, {8000, 12000}, {5000, 60000}} {
		graphs[fmt.Sprintf("random-%d", i)] = randomGraph(shape[0], shape[1], 100+uint64(i))
	}
	graphs["path-4096"] = pathGraph(4096)
	return graphs
}

// sparseForest is a forest on n vertices in which few vertices stay live
// for long: an id-ordered path through every stride-th vertex, which LMAX
// resolves one match per round from the top, and three-vertex paths over
// the other vertices, which retire within two rounds. After round two the
// live vertices are one in stride, spread over every word of a bitset.
func sparseForest(n, stride int) *graph.Graph {
	b := graph.NewBuilder(n)
	var rest []int32
	for v := 0; v < n; v++ {
		switch {
		case v%stride != 0:
			rest = append(rest, int32(v))
		case v > 0:
			b.AddEdge(int32(v-stride), int32(v))
		}
	}
	for i := 0; i+2 < len(rest); i += 3 {
		b.AddEdge(rest[i], rest[i+1])
		b.AddEdge(rest[i+1], rest[i+2])
	}
	return b.Build()
}

// checkAgainstReference runs solve on graphs at 1, 2 and 7 workers and
// requires the reference's mates, rounds, matched count and per-round
// progress every time.
func checkAgainstReference(t *testing.T, graphs map[string]*graph.Graph, solve func(g *graph.Graph) (*Matching, Stats), ref func(g *graph.Graph) ([]int32, Stats)) {
	t.Helper()
	defer par.SetWorkers(0)
	for name, g := range graphs {
		mate, want := ref(g)
		for _, w := range []int{1, 2, 7} {
			par.SetWorkers(w)
			m, got := solve(g)
			if got.Rounds != want.Rounds || got.Matched != want.Matched {
				t.Fatalf("%s, %d workers: %d rounds and %d matched, the reference %d and %d",
					name, w, got.Rounds, got.Matched, want.Rounds, want.Matched)
			}
			if !slices.Equal(got.PerRound, want.PerRound) {
				t.Fatalf("%s, %d workers: PerRound differs from the reference", name, w)
			}
			for v := range mate {
				if m.Mate[v] != mate[v] {
					t.Fatalf("%s, %d workers: Mate[%d] = %d, the reference says %d", name, w, v, m.Mate[v], mate[v])
				}
			}
		}
	}
}

func TestGMMatchesReference(t *testing.T) {
	checkAgainstReference(t, referenceGraphs(), GM, gmReference)
}

func TestGreedyRandomMatchesReference(t *testing.T) {
	checkAgainstReference(t, referenceGraphs(),
		func(g *graph.Graph) (*Matching, Stats) { return GreedyRandom(g, 5) },
		func(g *graph.Graph) ([]int32, Stats) { return greedyRandomReference(g, 5) })
}

// TestLMAXMatchesReference adds a sparse-live forest whose n = 12,345 is
// not a multiple of 64, so at 2 and 7 workers chunk boundaries split live
// words and neighbouring chunks retire bits of one word concurrently.
func TestLMAXMatchesReference(t *testing.T) {
	graphs := referenceGraphs()
	graphs["sparse-forest"] = sparseForest(12345, 37)
	checkAgainstReference(t, graphs,
		func(g *graph.Graph) (*Matching, Stats) { return LMAX(g, bsp.New(), 1) },
		lmaxReference)
}

func TestLMAXMaximalOnCorpus(t *testing.T) {
	machine := bsp.New()
	graphs := testGraphs()
	for i := uint64(0); i < 4; i++ {
		graphs[fmt.Sprintf("random-%d", i)] = randomGraph(200+100*int(i), 400+900*int(i), 20+i)
	}
	for name, g := range graphs {
		m, st := LMAX(g, machine, 42)
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Matched != m.Cardinality() {
			t.Fatalf("%s: Stats.Matched %d != cardinality %d", name, st.Matched, m.Cardinality())
		}
		mate, ref := lmaxReference(g)
		if st.Rounds != ref.Rounds {
			t.Fatalf("%s: LMAX took %d rounds, the reference %d", name, st.Rounds, ref.Rounds)
		}
		for v := range mate {
			if m.Mate[v] != mate[v] {
				t.Fatalf("%s: Mate[%d] = %d, the reference says %d", name, v, m.Mate[v], mate[v])
			}
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
	if s.ThreadsRun != int64(3*100*st.Rounds) {
		t.Fatalf("threads = %d, want 3 launches × 100 vertices × %d rounds", s.ThreadsRun, st.Rounds)
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
		"LMAX": LMAXSolver(machine),
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
				{"MM-MPX", func() (*Matching, Report) { return MMMPX(g, 0.2, 3, mm, nil) }},
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
