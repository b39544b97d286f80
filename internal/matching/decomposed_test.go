package matching

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

func TestMMRandDeterministicUnderSeed(t *testing.T) {
	g := randomGraph(500, 2500, 6)
	a, _ := MMRand(g, 10, 9, GMSolver(), nil)
	b, _ := MMRand(g, 10, 9, GMSolver(), nil)
	for i := range a.Mate {
		if a.Mate[i] != b.Mate[i] {
			t.Fatalf("MM-Rand differs at %d under same seed", i)
		}
	}
}

func TestMMRandDecompAccounted(t *testing.T) {
	g := randomGraph(2000, 10000, 2)
	_, rep := MMRand(g, 10, 1, GMSolver(), nil)
	if rep.Decomp <= 0 || rep.Solve <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestMMRandSinglePartDegeneratesToBaseline(t *testing.T) {
	// k=1: G_IS = G, no cross edges; cardinality must match plain GM.
	g := randomGraph(300, 1500, 3)
	m1, _ := MMRand(g, 1, 5, GMSolver(), nil)
	m2, _ := GM(g)
	if m1.Cardinality() != m2.Cardinality() {
		t.Fatalf("k=1 cardinality %d, GM %d", m1.Cardinality(), m2.Cardinality())
	}
	if err := Verify(g, m1); err != nil {
		t.Fatal(err)
	}
}

func TestMMDegkHighPhaseOnlyMatchesHighPairs(t *testing.T) {
	// Star: center deg n-1 (high), leaves deg 1 (low). G_H has no edges →
	// M_H empty; the entire matching must come from the G_LC phase.
	g := starGraph(20)
	m, rep := MMDegk(g, 2, GMSolver(), nil)
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
	if m.Cardinality() != 1 {
		t.Fatalf("star matching cardinality %d", m.Cardinality())
	}
	if rep.Strategy != "MM-Degk" {
		t.Fatalf("strategy %q", rep.Strategy)
	}
}

func TestLMAXIdWeightStarPicksMaxLeaf(t *testing.T) {
	// With w(u,v) = u+v the center's heaviest edge goes to the max-id
	// leaf, which must reciprocate: the matching is {0, n-1}.
	machine := bsp.New()
	m, st := LMAX(starGraph(12), machine, 1)
	if m.Mate[0] != 11 || m.Mate[11] != 0 {
		t.Fatalf("star matched %d-%d, want 0-11", 0, m.Mate[0])
	}
	// Round 1 matches {0, 11}; round 2 retires the remaining leaves.
	if st.Rounds != 2 {
		t.Fatalf("star took %d rounds, want 2", st.Rounds)
	}
}

func TestGMInterleavedStarsStress(t *testing.T) {
	// Interleaved stars plus a ring: adjacency cursors have to skip long
	// matched prefixes; the result must still be a maximal matching.
	bld := graph.NewBuilder(3000)
	for i := int32(0); i < 1000; i++ {
		bld.AddEdge(i, i+1000)
		bld.AddEdge(i, i+2000)
		bld.AddEdge(i, (i+1)%1000)
	}
	g := bld.Build()
	m, _ := GM(g)
	if err := Verify(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestMMBiconnMaximal(t *testing.T) {
	for name, g := range testGraphs() {
		m, rep := MMBiconn(g, GMSolver(), nil)
		if err := Verify(g, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Strategy != "MM-Biconn" {
			t.Fatalf("strategy %q", rep.Strategy)
		}
	}
}
