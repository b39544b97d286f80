package mis

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
)

func TestMaskedPhaseSeesOnlyInducedSubgraph(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 off vertex 0. Mask = {1, 2, 3}: the
	// induced subgraph is the single edge {1,2} plus isolated 3, so the
	// phase must select 3 and exactly one of {1,2} — never both.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	g := b.Build()
	set := NewIndepSet(4)
	member := []bool{false, true, true, true}
	maskedPhase(g, set, member, LubySolver(3), nil)
	if set.In[0] {
		t.Fatal("non-member selected")
	}
	if !set.In[3] {
		t.Fatal("isolated member not selected")
	}
	if set.In[1] == set.In[2] {
		t.Fatalf("edge {1,2} handled wrong: in=%v/%v", set.In[1], set.In[2])
	}
}

func TestRemainderPhaseCompletesMaximality(t *testing.T) {
	g := pathGraph(9)
	set := NewIndepSet(9)
	set.In[0] = true // seed a partial independent set
	remainderPhase(g, set, LubySolver(1), nil)
	if err := Verify(g, set); err != nil {
		t.Fatal(err)
	}
	if !set.In[0] {
		t.Fatal("remainder phase dropped a seeded member")
	}
}

func TestMISDeg2WithGPUAccounting(t *testing.T) {
	machine := bsp.New()
	g := pathGraph(2000) // everything degree ≤ 2: the KP phase does all work
	before := machine.Stats().Launches
	s, _ := MISDeg2With(g, LubyGPUSolver(machine, 1), KPSolverOn(machine), nil)
	if err := Verify(g, s); err != nil {
		t.Fatal(err)
	}
	if machine.Stats().Launches == before {
		t.Fatal("KP phase launched no kernels on the machine")
	}
}

func TestSolverStateConstants(t *testing.T) {
	if StateUndecided != 0 {
		t.Fatal("zero value of State must be StateUndecided")
	}
	if StateIn == StateOut || StateIn == StateUndecided {
		t.Fatal("state constants collide")
	}
}

func TestGreedyFewerRoundsThanPathLength(t *testing.T) {
	_, st := Greedy(pathGraph(4096), 3)
	if st.Rounds > 80 {
		t.Fatalf("greedy took %d rounds; dependence depth should be logarithmic-ish", st.Rounds)
	}
}

func TestMISRandOrderedForcedOrders(t *testing.T) {
	g := randomGraph(400, 1600, 4)
	for _, ord := range []Order{OrderAuto, OrderPartsFirst, OrderCrossFirst} {
		s, rep := MISRandOrdered(g, 5, 2, LubySolver(7), ord, nil)
		if err := Verify(g, s); err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
		switch ord {
		case OrderPartsFirst:
			if !rep.SparserFirst {
				t.Fatal("PartsFirst not honored")
			}
		case OrderCrossFirst:
			if rep.SparserFirst {
				t.Fatal("CrossFirst not honored")
			}
		}
	}
}

func TestMISBridgeOrderedForcedOrders(t *testing.T) {
	g := randomGraph(300, 400, 8)
	for _, ord := range []Order{OrderPartsFirst, OrderCrossFirst} {
		s, _ := MISBridgeOrdered(g, LubySolver(7), ord, nil)
		if err := Verify(g, s); err != nil {
			t.Fatalf("order %d: %v", ord, err)
		}
	}
}

func TestMISBiconnMaximal(t *testing.T) {
	for name, g := range testGraphs() {
		s, rep := MISBiconn(g, LubySolver(13), nil)
		if err := Verify(g, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Strategy != "MIS-Biconn" {
			t.Fatalf("strategy %q", rep.Strategy)
		}
	}
}
