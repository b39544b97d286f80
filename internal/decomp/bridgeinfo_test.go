package decomp

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/par"
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

// disjointUnion places the graphs side by side, renumbering each after
// the ones before it.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.NumVertices()
	}
	b := graph.NewBuilder(n)
	base := int32(0)
	for _, g := range gs {
		for _, e := range g.Edges() {
			b.AddEdge(base+e.U, base+e.V)
		}
		base += int32(g.NumVertices())
	}
	return b.Build()
}

// ladderGraph is two n-vertex paths joined by a rung at every position.
func ladderGraph(n int) *graph.Graph {
	b := graph.NewBuilder(2 * n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32(n+i))
		if i+1 < n {
			b.AddEdge(int32(i), int32(i+1))
			b.AddEdge(int32(n+i), int32(n+i+1))
		}
	}
	return b.Build()
}

// nestedCyclesGraph joins vertex 0 to vertex 1 by paths of lengths 2, 3,
// ..., k+1 through fresh vertices, so every cycle shares the vertices 0
// and 1, and the shorter paths' cycles nest inside the longer ones; a
// chord joins the midpoints of each pair of consecutive paths, so the
// cycles also share path edges.
func nestedCyclesGraph(k int) *graph.Graph {
	var edges []graph.Edge
	next := int32(2)
	var mids []int32
	for l := 2; l <= k+1; l++ {
		prev := int32(0)
		for s := 1; s < l; s++ {
			edges = append(edges, graph.Edge{U: prev, V: next})
			if s == l/2 {
				mids = append(mids, next)
			}
			prev = next
			next++
		}
		edges = append(edges, graph.Edge{U: prev, V: 1})
	}
	for i := 0; i+1 < len(mids); i += 2 {
		edges = append(edges, graph.Edge{U: mids[i], V: mids[i+1]})
	}
	return graph.FromEdges(int(next), edges)
}

// pendantGraph hangs a path of length l off every vertex of a c-cycle,
// and a path half as long off the middle of each of those: every pendant
// edge is a bridge, and no cycle edge is.
func pendantGraph(c, l int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < c; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32((i + 1) % c)})
	}
	next := int32(c)
	for i := 0; i < c; i++ {
		prev := int32(i)
		var mid int32
		for s := 0; s < l; s++ {
			edges = append(edges, graph.Edge{U: prev, V: next})
			if s == l/2 {
				mid = next
			}
			prev = next
			next++
		}
		prev = mid
		for s := 0; s < l/2; s++ {
			edges = append(edges, graph.Edge{U: prev, V: next})
			prev = next
			next++
		}
	}
	return graph.FromEdges(int(next), edges)
}

// wantBridgeList is the oracle's bridge set in FindBridges' listing order:
// by child, the endpoint one BFS level deeper.
func wantBridgeList(g *graph.Graph) []graph.Edge {
	level := (&frontier.Engine{}).BFSForest(g).Level
	child := func(e graph.Edge) int32 {
		if level[e.U] > level[e.V] {
			return e.U
		}
		return e.V
	}
	want := graph.Bridges(g)
	slices.SortFunc(want, func(a, b graph.Edge) int { return cmp.Compare(child(a), child(b)) })
	return want
}

// TestFindBridgesEqualsOracle: the jumping LCA walks find exactly the
// sequential DFS oracle's bridges, listed by child vertex, on every
// dataset at a test scale, on shapes whose walks overlap heavily and on
// sparse random graphs, whose few long cycles each rest on few walks, at
// 1, 2 and 7 workers.
func TestFindBridgesEqualsOracle(t *testing.T) {
	defer par.SetWorkers(0)
	type input struct {
		name string
		g    *graph.Graph
	}
	var inputs []input
	for _, spec := range dataset.All() {
		inputs = append(inputs, input{spec.Name, dataset.Load(spec, 0.02, 1)})
	}
	inputs = append(inputs,
		input{"long-cycle", cycleGraph(20000)},
		input{"ladder", ladderGraph(5000)},
		input{"grid", gridGraph(120, 90)},
		input{"nested-cycles", nestedCyclesGraph(60)},
		input{"pendant-paths", pendantGraph(200, 30)},
		input{"sparse-random-1", randomGraph(3000, 3300, 1)},
		input{"sparse-random-2", randomGraph(3000, 3600, 2)},
		input{"sparse-random-3", randomGraph(20000, 24000, 3)},
		input{"disconnected", disjointUnion(cycleGraph(700), pathGraph(300), ladderGraph(400),
			pendantGraph(40, 12), graph.FromEdges(5, nil), nestedCyclesGraph(25), gridGraph(30, 30))},
	)
	for _, in := range inputs {
		want := wantBridgeList(in.g)
		for _, w := range []int{1, 2, 7} {
			par.SetWorkers(w)
			bi := FindBridges(in.g, nil)
			if !slices.Equal(bi.Bridges, want) {
				t.Fatalf("%s, %d workers: %d bridges differ from the oracle's %d in order by child",
					in.name, w, len(bi.Bridges), len(want))
			}
			if bi.Rounds != (&frontier.Engine{}).BFSForest(in.g).Depth {
				t.Fatalf("%s, %d workers: Rounds %d is not the BFS depth", in.name, w, bi.Rounds)
			}
		}
		par.SetWorkers(0)
	}
}
