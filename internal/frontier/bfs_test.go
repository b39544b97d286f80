package frontier

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// forestLevels is the oracle for BFSForest: a sequential queue BFS from
// every vertex not yet reached, in index order, so each component's root
// is its smallest vertex.
func forestLevels(g *graph.Graph) []int32 {
	n := g.NumVertices()
	lvl := make([]int32, n)
	for i := range lvl {
		lvl[i] = -1
	}
	for r := 0; r < n; r++ {
		if lvl[r] != -1 {
			continue
		}
		lvl[r] = 0
		q := []int32{int32(r)}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range g.Neighbors(v) {
				if lvl[w] == -1 {
					lvl[w] = lvl[v] + 1
					q = append(q, w)
				}
			}
		}
	}
	return lvl
}

// checkTree verifies the structural invariants of a BFS forest: roots
// sit at level 0, every other vertex hangs off a graph neighbor one level
// up, and Depth counts the levels.
func checkTree(t *testing.T, g *graph.Graph, tr *Tree) {
	t.Helper()
	maxLevel := int32(-1)
	for v := 0; v < g.NumVertices(); v++ {
		p := tr.Parent[v]
		if p == -1 {
			if tr.Level[v] != 0 {
				t.Fatalf("root %d has level %d", v, tr.Level[v])
			}
		} else {
			if !g.HasEdge(int32(v), p) {
				t.Fatalf("tree edge {%d,%d} not in graph", v, p)
			}
			if tr.Level[v] != tr.Level[p]+1 {
				t.Fatalf("level[%d]=%d but level[parent=%d]=%d", v, tr.Level[v], p, tr.Level[p])
			}
		}
		maxLevel = max(maxLevel, tr.Level[v])
	}
	if tr.Depth != int(maxLevel)+1 {
		t.Fatalf("Depth = %d, want %d (deepest level + 1)", tr.Depth, maxLevel+1)
	}
}

// checkLevels verifies tr's levels against the forestLevels oracle.
func checkLevels(t *testing.T, g *graph.Graph, tr *Tree) {
	t.Helper()
	want := forestLevels(g)
	for v := range want {
		if tr.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, tr.Level[v], want[v])
		}
	}
}

func TestBFSForestLevelsMatchOracle(t *testing.T) {
	cases := []*graph.Graph{
		pathGraph(100),
		gridGraph(20, 30),
		randomGraph(500, 2500, 1),
	}
	for ci, g := range cases {
		tr := (&Engine{PullDiv: NoPull}).BFSForest(g)
		checkTree(t, g, tr)
		want := forestLevels(g)
		for v := range want {
			if tr.Level[v] != want[v] {
				t.Fatalf("case %d: level[%d] = %d, want %d", ci, v, tr.Level[v], want[v])
			}
		}
	}
}

func TestBFSForestDepth(t *testing.T) {
	tr := (&Engine{PullDiv: NoPull}).BFSForest(pathGraph(50))
	if tr.Depth != 50 {
		t.Fatalf("Depth = %d, want 50 (49 levels + root round)", tr.Depth)
	}
}

func TestBFSForestLargeParallel(t *testing.T) {
	// Wide shallow graph: a center, 100 hubs, 1000 leaves per hub —
	// big frontiers at depth 3.
	b := graph.NewBuilder(1 + 100 + 100*1000)
	next := int32(101)
	for h := int32(1); h <= 100; h++ {
		b.AddEdge(0, h)
		for l := 0; l < 1000; l++ {
			b.AddEdge(h, next)
			next++
		}
	}
	g := b.Build()
	tr := (&Engine{PullDiv: NoPull}).BFSForest(g)
	checkTree(t, g, tr)
	checkLevels(t, g, tr)
	if tr.Depth != 3 {
		t.Fatalf("Depth = %d, want 3", tr.Depth)
	}
}

func TestBFSForestCoversDisconnected(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	// 5..9 isolated
	g := b.Build()
	tr := (&Engine{PullDiv: NoPull}).BFSForest(g)
	checkTree(t, g, tr)
	var roots []int32
	for v := 0; v < g.NumVertices(); v++ {
		if tr.Parent[v] == -1 {
			roots = append(roots, int32(v))
		}
	}
	// Components {0,1}, {2,3,4}, 5, 6, 7, 8, 9, each rooted at its
	// smallest vertex.
	if want := []int32{0, 2, 5, 6, 7, 8, 9}; !equalVerts(roots, want) {
		t.Fatalf("roots %v, want %v", roots, want)
	}
}

// TestBFSForestRootsAreComponentMinima: the forest's roots, taken from
// the union-find, are the first vertex of each ConnectedComponents label,
// on graphs whose many components interleave their ids, at 1, 2 and 7
// workers.
func TestBFSForestRootsAreComponentMinima(t *testing.T) {
	defer par.SetWorkers(0)
	for _, g := range []*graph.Graph{
		randomGraph(20000, 9000, 5),
		randomGraph(3000, 2500, 6),
		randomGraph(1000, 0, 7),
	} {
		label, nc := graph.ConnectedComponents(g)
		var want []int32
		for v, l := range label {
			if int(l) == len(want) {
				want = append(want, int32(v))
			}
		}
		if len(want) != nc {
			t.Fatalf("%d component minima for %d components", len(want), nc)
		}
		for _, w := range []int{1, 2, 7} {
			par.SetWorkers(w)
			tr := (&Engine{}).BFSForest(g)
			checkTree(t, g, tr)
			var roots []int32
			for v, p := range tr.Parent {
				if p == -1 {
					roots = append(roots, int32(v))
				}
			}
			if !equalVerts(roots, want) {
				t.Fatalf("%d workers, %d vertices: %d roots, want the %d component minima",
					w, g.NumVertices(), len(roots), len(want))
			}
		}
	}
}

func TestBFSForestIsTreeEdge(t *testing.T) {
	tr := (&Engine{PullDiv: NoPull}).BFSForest(pathGraph(4))
	if !tr.IsTreeEdge(0, 1) || !tr.IsTreeEdge(1, 0) {
		t.Fatal("path edge not recognized as tree edge")
	}
	if tr.IsTreeEdge(0, 2) {
		t.Fatal("non-edge claimed as tree edge")
	}
}

func TestBFSForestTreeEdgeCount(t *testing.T) {
	g := randomGraph(1000, 3000, 5)
	tr := new(Engine).BFSForest(g)
	treeEdges := 0
	for v := 0; v < g.NumVertices(); v++ {
		if tr.Parent[v] >= 0 {
			treeEdges++
		}
	}
	_, nc := graph.ConnectedComponents(g)
	if treeEdges != g.NumVertices()-nc {
		t.Fatalf("tree edges %d, want n - components = %d", treeEdges, g.NumVertices()-nc)
	}
}

func TestBFSForestHybridLevelsMatchPlain(t *testing.T) {
	cases := []*graph.Graph{
		pathGraph(200),
		gridGraph(40, 40),
		randomGraph(2000, 12000, 1), // dense enough to trigger bottom-up
		randomGraph(500, 400, 2),    // disconnected
	}
	for ci, g := range cases {
		plain := (&Engine{PullDiv: NoPull}).BFSForest(g)
		hybrid := new(Engine).BFSForest(g)
		checkTree(t, g, hybrid)
		for v := 0; v < g.NumVertices(); v++ {
			if plain.Level[v] != hybrid.Level[v] {
				t.Fatalf("case %d: level[%d] = %d (hybrid) vs %d (plain)",
					ci, v, hybrid.Level[v], plain.Level[v])
			}
		}
		if plain.Depth != hybrid.Depth {
			t.Fatalf("case %d: depth %d vs %d", ci, hybrid.Depth, plain.Depth)
		}
	}
}

func TestBFSForestHybridSingleSource(t *testing.T) {
	// The grid is connected, so the forest is one tree rooted at vertex 0.
	g := gridGraph(30, 30)
	tr := new(Engine).BFSForest(g)
	checkTree(t, g, tr)
	checkLevels(t, g, tr)
}

func TestBFSForestBottomUpTriggers(t *testing.T) {
	// The root's level-1 frontier (its 199 neighbors) exceeds n/16, so
	// the default engine must pull the next round.
	b := graph.NewBuilder(200)
	for i := 1; i < 200; i++ {
		b.AddEdge(0, int32(i))
	}
	for i := 1; i < 100; i++ {
		b.AddEdge(int32(i), int32(i+100))
	}
	g := b.Build()
	eng := &Engine{}
	tr := eng.BFSForest(g)
	checkTree(t, g, tr)
	if tr.Depth != 2 {
		t.Fatalf("depth = %d", tr.Depth)
	}
	if eng.Pulls == 0 {
		t.Fatalf("no bottom-up round: %+v", eng)
	}
}
