package matching

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
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

// TestCrossPhaseIsResidualCrossGraph checks, by brute force, the two
// graphs MM-Bridge, MM-Rand, MM-Degk and MM-MPX hand their inner solver,
// which records them, at 1, 2 and 7 workers. The first is g less its cross
// edges, over every vertex id. The second is G_x[V′]: its vertices are the
// endpoints of cross edges that the first phase left unmatched, in id
// order, isolated ones included, and its edges are the cross edges
// between them. The result is the first matching plus the second read
// through V′.
func TestCrossPhaseIsResidualCrossGraph(t *testing.T) {
	defer par.SetWorkers(0)
	graphs := testGraphs()
	graphs["rand-mid"] = randomGraph(200, 500, 4)
	machine := bsp.New()
	isolated := 0
	for _, w := range []int{1, 2, 7} {
		par.SetWorkers(w)
		for gname, g := range graphs {
			n := g.NumVertices()
			bi := decomp.FindBridges(g, nil)
			part := decomp.RandLabels(n, 4, 3)
			deg := decomp.DegkLabels(g, 2)
			ball := decomp.MPXGrow(g, 0.2, 3, nil).Center
			cases := []struct {
				name  string
				cross func(u, v int32) bool
				run   func(mm Algorithm) *Matching
			}{
				{"MM-Bridge", bi.IsBridge, func(mm Algorithm) *Matching { m, _ := MMBridge(g, mm, nil); return m }},
				{"MM-Rand", func(u, v int32) bool { return part[u] != part[v] },
					func(mm Algorithm) *Matching { m, _ := MMRand(g, 4, 3, mm, nil); return m }},
				{"MM-Degk", func(u, v int32) bool { return deg[u] != decomp.DegkHigh || deg[v] != decomp.DegkHigh },
					func(mm Algorithm) *Matching { m, _ := MMDegk(g, 2, mm, nil); return m }},
				{"MM-MPX", func(u, v int32) bool { return ball[u] != ball[v] },
					func(mm Algorithm) *Matching { m, _ := MMMPX(g, 0.2, 3, mm, nil); return m }},
			}
			for _, inner := range []struct {
				name string
				mm   Algorithm
			}{{"GM", GMSolver()}, {"LMAX", LMAXSolver(machine)}} {
				for _, c := range cases {
					where := fmt.Sprintf("w=%d %s/%s/%s", w, c.name, inner.name, gname)
					var seen []*graph.Graph
					var mates [][]int32
					got := c.run(func(h *graph.Graph, sp *trace.Span) (*Matching, Stats) {
						m, st := inner.mm(h, sp)
						seen, mates = append(seen, h), append(mates, slices.Clone(m.Mate))
						return m, st
					})
					if len(seen) != 2 {
						t.Fatalf("%s: %d inner runs, want 2", where, len(seen))
					}
					var wantFirst, cross []graph.Edge
					for _, e := range g.Edges() {
						if c.cross(e.U, e.V) {
							cross = append(cross, e)
						} else {
							wantFirst = append(wantFirst, e)
						}
					}
					if seen[0].NumVertices() != n || !slices.Equal(seen[0].Edges(), wantFirst) {
						t.Fatalf("%s: the first phase's graph is not g less its cross edges", where)
					}
					first := mates[0]
					inV := make([]bool, n)
					var wantSecond []graph.Edge
					for _, e := range cross {
						if first[e.U] == Unmatched && first[e.V] == Unmatched {
							wantSecond = append(wantSecond, e)
						}
						inV[e.U] = inV[e.U] || first[e.U] == Unmatched
						inV[e.V] = inV[e.V] || first[e.V] == Unmatched
					}
					var vPrime []int32
					for v, ok := range inV {
						if ok {
							vPrime = append(vPrime, int32(v))
						}
					}
					second := seen[1]
					if second.NumVertices() != len(vPrime) {
						t.Fatalf("%s: the second phase's graph has %d vertices, want the %d of V′",
							where, second.NumVertices(), len(vPrime))
					}
					es := second.Edges()
					for i, e := range es {
						es[i] = graph.Edge{U: vPrime[e.U], V: vPrime[e.V]}
					}
					if !slices.Equal(es, wantSecond) {
						t.Fatalf("%s: the second phase's edges %v, want %v", where, es, wantSecond)
					}
					want := slices.Clone(first)
					for j, u := range mates[1] {
						if u != Unmatched {
							want[vPrime[j]] = vPrime[u]
						}
						if second.Degree(int32(j)) == 0 {
							isolated++
						}
					}
					if !slices.Equal(got.Mate, want) {
						t.Fatalf("%s: the result is not the two phases' matchings merged", where)
					}
				}
			}
		}
	}
	if isolated == 0 {
		t.Fatal("no second phase had an isolated vertex, so dropping them would go unseen")
	}
}
