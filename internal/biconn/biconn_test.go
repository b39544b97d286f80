package biconn

import (
	"testing"

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

func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := par.NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

// bowtie: two triangles sharing vertex 2 — the canonical two-block,
// one-articulation-point instance.
func bowtie() *graph.Graph {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(2, 4)
	return b.Build()
}

// sameClassification reports whether two dense labelings induce the same
// partition.
func sameClassification(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := bwd[b[i]]; ok && x != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

func checkAgainstOracle(t *testing.T, g *graph.Graph, name string) {
	t.Helper()
	got := Blocks(g, nil)
	want := BlocksSequential(g)
	if got.NumBlocks != want.NumBlocks {
		t.Fatalf("%s: %d blocks, oracle %d", name, got.NumBlocks, want.NumBlocks)
	}
	if !sameClassification(got.EdgeBlock, want.EdgeBlock) {
		t.Fatalf("%s: block partition differs from oracle", name)
	}
	for v := range got.IsArticulation {
		if got.IsArticulation[v] != want.IsArticulation[v] {
			t.Fatalf("%s: articulation disagreement at %d (got %v)", name, v, got.IsArticulation[v])
		}
	}
}

func TestBlocksKnownShapes(t *testing.T) {
	// Bowtie: 2 blocks, articulation = {2}.
	r := Blocks(bowtie(), nil)
	if r.NumBlocks != 2 {
		t.Fatalf("bowtie blocks = %d", r.NumBlocks)
	}
	for v, want := range []bool{false, false, true, false, false} {
		if r.IsArticulation[v] != want {
			t.Fatalf("bowtie articulation[%d] = %v", v, r.IsArticulation[v])
		}
	}
	// Cycle: one block, no articulation points.
	r = Blocks(cycleGraph(12), nil)
	if r.NumBlocks != 1 {
		t.Fatalf("cycle blocks = %d", r.NumBlocks)
	}
	for v, a := range r.IsArticulation {
		if a {
			t.Fatalf("cycle has articulation point %d", v)
		}
	}
	// Path: every edge its own block, every interior vertex articulation.
	r = Blocks(pathGraph(6), nil)
	if r.NumBlocks != 5 {
		t.Fatalf("path blocks = %d", r.NumBlocks)
	}
	for v := 1; v <= 4; v++ {
		if !r.IsArticulation[v] {
			t.Fatalf("path interior %d not articulation", v)
		}
	}
	if r.IsArticulation[0] || r.IsArticulation[5] {
		t.Fatal("path endpoints flagged")
	}
}

func TestBlocksMatchOracleRandom(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := randomGraph(120, 150+int(seed)*40, seed+1)
		checkAgainstOracle(t, g, "random")
	}
}

func TestBlocksMatchOracleExhaustiveSmall(t *testing.T) {
	// All graphs on 5 vertices.
	type pair struct{ u, v int32 }
	var pairs []pair
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			pairs = append(pairs, pair{u, v})
		}
	}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		b := graph.NewBuilder(5)
		for i, p := range pairs {
			if mask&(1<<i) != 0 {
				b.AddEdge(p.u, p.v)
			}
		}
		checkAgainstOracle(t, b.Build(), "exhaustive")
	}
}

func TestBlocksBridgeConsistency(t *testing.T) {
	// Singleton blocks are exactly the bridges.
	g := randomGraph(200, 230, 9)
	r := Blocks(g, nil)
	sizes := make([]int, r.NumBlocks)
	for _, blk := range r.EdgeBlock {
		sizes[blk]++
	}
	singletons := map[graph.Edge]bool{}
	for i, e := range r.Edges {
		if sizes[r.EdgeBlock[i]] == 1 {
			singletons[e] = true
		}
	}
	bridges := graph.Bridges(g)
	if len(bridges) != len(singletons) {
		t.Fatalf("%d singleton blocks, %d bridges", len(singletons), len(bridges))
	}
	for _, e := range bridges {
		if !singletons[e] {
			t.Fatalf("bridge %v not a singleton block", e)
		}
	}
}

func TestBlocksEmptyAndEdgeless(t *testing.T) {
	for _, g := range []*graph.Graph{graph.NewBuilder(0).Build(), graph.NewBuilder(7).Build()} {
		r := Blocks(g, nil)
		if r.NumBlocks != 0 || len(r.EdgeBlock) != 0 {
			t.Fatalf("edgeless graph produced %d blocks", r.NumBlocks)
		}
		for _, a := range r.IsArticulation {
			if a {
				t.Fatal("articulation point in edgeless graph")
			}
		}
	}
}
