package decomp

import (
	"testing"

	"repro/internal/graph"
)

func TestFindBridgesIsBridgePredicate(t *testing.T) {
	g := paperGraph()
	bi := FindBridges(g, nil)
	if len(bi.Bridges) != 2 {
		t.Fatalf("bridges = %v", bi.Bridges)
	}
	bridgeSet := map[graph.Edge]bool{}
	for _, e := range bi.Bridges {
		bridgeSet[e] = true
	}
	for _, e := range g.Edges() {
		want := bridgeSet[e]
		if got := bi.IsBridge(e.U, e.V); got != want {
			t.Fatalf("IsBridge(%v) = %v, want %v", e, got, want)
		}
		if got := bi.IsBridge(e.V, e.U); got != want {
			t.Fatalf("IsBridge reversed (%v) = %v, want %v", e, got, want)
		}
	}
	// Non-edges are never bridges.
	if bi.IsBridge(0, 7) {
		t.Fatal("non-edge reported as bridge")
	}
}

func TestFindBridgesMatchesOracleRandom(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := randomGraph(150, 200, seed+50)
		bi := FindBridges(g, nil)
		want := graph.Bridges(g)
		if len(bi.Bridges) != len(want) {
			t.Fatalf("seed %d: %d bridges, oracle %d", seed, len(bi.Bridges), len(want))
		}
		wantSet := map[graph.Edge]bool{}
		for _, e := range want {
			wantSet[e] = true
		}
		for _, e := range bi.Bridges {
			if !wantSet[e] {
				t.Fatalf("seed %d: %v not a bridge", seed, e)
			}
		}
	}
}

func TestFindBridgesRounds(t *testing.T) {
	bi := FindBridges(pathGraph(100), nil)
	if bi.Rounds != 100 {
		t.Fatalf("Rounds = %d, want BFS depth 100", bi.Rounds)
	}
}
