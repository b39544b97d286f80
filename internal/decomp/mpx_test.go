package decomp

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// TestMPXEveryVertexInExactlyOneBall: the ball assignment is total (no
// vertex unclaimed) and well-formed (centers are their own centers, members
// point at a real center).
func TestMPXEveryVertexInExactlyOneBall(t *testing.T) {
	for _, g := range []*graph.Graph{paperGraph(), pathGraph(500), cycleGraph(64), randomGraph(2000, 8000, 4)} {
		info := MPXGrow(g, DefaultMPXBeta, 1, nil)
		n := g.NumVertices()
		balls := 0
		for v := 0; v < n; v++ {
			c := info.Center[v]
			if c < 0 || int(c) >= n {
				t.Fatalf("Center[%d] = %d out of range", v, c)
			}
			if info.Center[c] != c {
				t.Fatalf("Center[%d] = %d, but Center[%d] = %d (not a center)",
					v, c, c, info.Center[c])
			}
			if info.Round[v] < 0 {
				t.Fatalf("Round[%d] = %d, vertex never claimed", v, info.Round[v])
			}
			if c == int32(v) {
				balls++
			}
		}
		if balls != info.Balls {
			t.Fatalf("counted %d centers, Balls = %d", balls, info.Balls)
		}
		if info.Balls < 1 || info.Balls > n {
			t.Fatalf("Balls = %d for n = %d", info.Balls, n)
		}
	}
}

// TestMPXLayeredGrowthAndRadiusBound: every non-center was claimed from a
// same-ball neighbor one round earlier (so Round[v] − Round[Center[v]]
// bounds the distance to the center and balls are connected), and no vertex
// is claimed after its own shifted start time start[v] = ⌊maxDelta −
// delta_v⌋ (at that round it would have seeded its own ball) — which caps
// every ball radius at ⌊maxDelta⌋ for the fixed beta.
func TestMPXLayeredGrowthAndRadiusBound(t *testing.T) {
	g := randomGraph(3000, 12000, 9)
	info := MPXGrow(g, DefaultMPXBeta, 2, nil)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		start := int32(info.MaxDelta - info.Delta[v])
		if info.Round[v] > start {
			t.Fatalf("Round[%d] = %d after own start time %d", v, info.Round[v], start)
		}
		c := info.Center[v]
		if c == int32(v) {
			continue
		}
		if info.Round[v] <= info.Round[c] {
			t.Fatalf("member %d claimed at round %d, not after its center %d (round %d)",
				v, info.Round[v], c, info.Round[c])
		}
		found := false
		for _, u := range g.Neighbors(int32(v)) {
			if info.Center[u] == c && info.Round[u] == info.Round[v]-1 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("member %d (round %d) has no same-ball neighbor at round %d",
				v, info.Round[v], info.Round[v]-1)
		}
		if radius := info.Round[v] - info.Round[c]; float64(radius) > info.MaxDelta {
			t.Fatalf("ball radius %d exceeds maxDelta %v", radius, info.MaxDelta)
		}
	}
}

// TestMPXDeterministicAcrossWorkers: shifts are pure hashes and claims are
// CAS-min, so the full assignment is bit-identical under any worker count.
func TestMPXDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	g := randomGraph(2500, 10000, 11)
	par.SetWorkers(1)
	ref := MPXGrow(g, DefaultMPXBeta, 3, nil)
	for _, w := range []int{2, 4, 8} {
		par.SetWorkers(w)
		got := MPXGrow(g, DefaultMPXBeta, 3, nil)
		if got.Balls != ref.Balls || got.Rounds != ref.Rounds {
			t.Fatalf("%d workers: %d balls/%d rounds, 1 worker: %d/%d",
				w, got.Balls, got.Rounds, ref.Balls, ref.Rounds)
		}
		for v := range ref.Center {
			if got.Center[v] != ref.Center[v] {
				t.Fatalf("Center[%d] = %d with %d workers, %d with 1",
					v, got.Center[v], w, ref.Center[v])
			}
			if got.Round[v] != ref.Round[v] {
				t.Fatalf("Round[%d] = %d with %d workers, %d with 1",
					v, got.Round[v], w, ref.Round[v])
			}
		}
	}
}

// TestMPXResultShape: the materialized Result satisfies the decomposition
// invariant and carries a dense ball labeling consistent with the centers.
func TestMPXResultShape(t *testing.T) {
	g := randomGraph(1500, 6000, 6)
	r := MPX(g, DefaultMPXBeta, 1)
	checkEdgeConservation(t, g, r)
	if len(r.Parts) != 1 {
		t.Fatalf("parts = %d, want 1 (BRIDGE shape)", len(r.Parts))
	}
	if r.Balls < 1 {
		t.Fatalf("Balls = %d", r.Balls)
	}
	if r.Rounds < 1 {
		t.Fatalf("Rounds = %d", r.Rounds)
	}
	n := g.NumVertices()
	seen := map[int32]bool{}
	for v := 0; v < n; v++ {
		l := r.Label[v]
		if l < 0 || int(l) >= r.Balls {
			t.Fatalf("Label[%d] = %d, not a dense ball index (< %d)", v, l, r.Balls)
		}
		seen[l] = true
	}
	if len(seen) != r.Balls {
		t.Fatalf("labels cover %d balls, want %d", len(seen), r.Balls)
	}
	// No part edge crosses balls, every cross edge does.
	info := MPXGrow(g, DefaultMPXBeta, 1, nil)
	part := r.Parts[0].G
	for v := int32(0); v < int32(part.NumVertices()); v++ {
		for _, w := range part.Neighbors(v) {
			if info.Center[v] != info.Center[w] {
				t.Fatalf("part edge (%d,%d) crosses balls", v, w)
			}
		}
	}
	cr := r.Cross
	for j := 0; j < cr.NumVertices(); j++ {
		v := cr.ToGlobal[j]
		for _, lw := range cr.G.Neighbors(int32(j)) {
			if w := cr.ToGlobal[lw]; info.Center[v] == info.Center[w] {
				t.Fatalf("cross edge (%d,%d) is intra-ball", v, w)
			}
		}
	}
}

// TestMPXBetaTradeoff: larger beta means more, smaller balls and therefore
// at least as many cross edges — the knob the quality comparison in
// EXPERIMENTS.md sweeps.
func TestMPXBetaTradeoff(t *testing.T) {
	g := randomGraph(3000, 15000, 5)
	coarse := MPX(g, 0.05, 1)
	fine := MPX(g, 1.0, 1)
	if coarse.Balls >= fine.Balls {
		t.Fatalf("beta 0.05 grew %d balls, beta 1.0 grew %d — expected fewer coarse balls",
			coarse.Balls, fine.Balls)
	}
	if coarse.CrossEdges() > fine.CrossEdges() {
		t.Fatalf("beta 0.05 cut %d edges, beta 1.0 cut %d — expected coarse ≤ fine",
			coarse.CrossEdges(), fine.CrossEdges())
	}
}

// TestMPXPanicsOnBadBeta: MPXGrow panics on every rate CheckMPXBeta
// rejects: zero, NaN, and 1e-9, whose start rounds (up to 53·ln 2/1e-9 ≈
// 3.7·10¹⁰) do not fit in int32.
func TestMPXPanicsOnBadBeta(t *testing.T) {
	for _, beta := range []float64{0, math.NaN(), 1e-9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("beta = %v accepted", beta)
				}
			}()
			MPXGrow(pathGraph(4), beta, 1, nil)
		}()
	}
}

// TestParseTechniqueRoundTrip: every Technique's String() parses back to
// itself, case-insensitively — the contract cmd/decomp and the harness
// headers rely on.
func TestParseTechniqueRoundTrip(t *testing.T) {
	for _, tech := range Techniques() {
		got, err := ParseTechnique(tech.String())
		if err != nil || got != tech {
			t.Fatalf("ParseTechnique(%q) = %v, %v", tech.String(), got, err)
		}
	}
	if got, err := ParseTechnique("mpx"); err != nil || got != TechMPX {
		t.Fatalf("ParseTechnique(\"mpx\") = %v, %v", got, err)
	}
	if got, err := ParseTechnique("Degk"); err != nil || got != TechDegk {
		t.Fatalf("ParseTechnique(\"Degk\") = %v, %v", got, err)
	}
	if _, err := ParseTechnique("nope"); err == nil {
		t.Fatal("unknown technique accepted")
	}
}
