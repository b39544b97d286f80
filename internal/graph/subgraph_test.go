package graph

import (
	"runtime"
	"testing"

	"repro/internal/par"
)

// checkPartition verifies the fundamental decomposition invariant: every
// edge of g appears in exactly one part or in the cross subgraph, vertex
// maps are strictly increasing, and part subgraphs are valid.
func checkPartition(t *testing.T, g *Graph, label []int32, parts []*Sub, cross *Sub) {
	t.Helper()
	var totalVerts int
	var totalEdges int64
	for li, p := range parts {
		if err := p.G.Validate(); err != nil {
			t.Fatalf("part %d invalid: %v", li, err)
		}
		totalVerts += p.NumVertices()
		totalEdges += p.NumEdges()
		for j, gv := range p.ToGlobal {
			if j > 0 && p.ToGlobal[j-1] >= gv {
				t.Fatalf("part %d ToGlobal not increasing at %d", li, j)
			}
			if label[gv] != int32(li) {
				t.Fatalf("part %d contains vertex %d with label %d", li, gv, label[gv])
			}
		}
		// Every part edge exists in g with matching labels.
		for lu := 0; lu < p.NumVertices(); lu++ {
			for _, lv := range p.G.Neighbors(int32(lu)) {
				gu, gv := p.ToGlobal[lu], p.ToGlobal[lv]
				if !g.HasEdge(gu, gv) {
					t.Fatalf("part %d edge {%d,%d} missing in parent", li, gu, gv)
				}
			}
		}
	}
	if totalVerts != g.NumVertices() {
		t.Fatalf("parts cover %d vertices, graph has %d", totalVerts, g.NumVertices())
	}
	if err := cross.G.Validate(); err != nil {
		t.Fatalf("cross invalid: %v", err)
	}
	// Every cross edge joins different labels.
	for lu := 0; lu < cross.NumVertices(); lu++ {
		gu := cross.ToGlobal[lu]
		if cross.G.Degree(int32(lu)) == 0 {
			t.Fatalf("cross subgraph has isolated vertex %d", gu)
		}
		for _, lv := range cross.G.Neighbors(int32(lu)) {
			gv := cross.ToGlobal[lv]
			if label[gu] == label[gv] {
				t.Fatalf("cross edge {%d,%d} has equal labels", gu, gv)
			}
			if !g.HasEdge(gu, gv) {
				t.Fatalf("cross edge {%d,%d} missing in parent", gu, gv)
			}
		}
	}
	if got := totalEdges + cross.NumEdges(); got != g.NumEdges() {
		t.Fatalf("edge conservation: parts+cross = %d, graph has %d", got, g.NumEdges())
	}
}

func TestPartitionByLabelPaperExample(t *testing.T) {
	// Figure 1(c): RAND with 2 groups, {b,c,e,h,g} in group 0 and {a,d,f}
	// in group 1 (a=0..h=7).
	g := paperGraph()
	label := []int32{1, 0, 0, 1, 0, 1, 0, 0}
	parts, cross := PartitionByLabel(g, label, 2)
	checkPartition(t, g, label, parts, cross)
	if parts[0].NumVertices() != 5 || parts[1].NumVertices() != 3 {
		t.Fatalf("part sizes %d/%d, want 5/3", parts[0].NumVertices(), parts[1].NumVertices())
	}
	// Group 0 {b,c,e,g,h} induces edges b-c and g-h; group 1 {a,d,f} has none.
	if parts[0].NumEdges() != 2 {
		t.Fatalf("group-0 edges = %d, want 2", parts[0].NumEdges())
	}
	if parts[1].NumEdges() != 0 {
		t.Fatalf("group-1 edges = %d, want 0", parts[1].NumEdges())
	}
	if cross.NumEdges() != g.NumEdges()-2 {
		t.Fatalf("cross edges = %d, want %d", cross.NumEdges(), g.NumEdges()-2)
	}
}

func TestPartitionByLabelRandomizedInvariant(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := randomGraph(400, 1600, seed)
		for _, k := range []int{1, 2, 3, 7} {
			label := make([]int32, g.NumVertices())
			for i := range label {
				label[i] = int32(par.HashRange(seed, int64(i), k))
			}
			parts, cross := PartitionByLabel(g, label, k)
			checkPartition(t, g, label, parts, cross)
		}
	}
}

func TestPartitionByLabelSinglePart(t *testing.T) {
	g := paperGraph()
	label := make([]int32, g.NumVertices())
	parts, cross := PartitionByLabel(g, label, 1)
	if len(parts) != 1 {
		t.Fatalf("got %d parts", len(parts))
	}
	if parts[0].NumEdges() != g.NumEdges() || cross.NumEdges() != 0 {
		t.Fatal("single part must hold the whole graph")
	}
	if cross.NumVertices() != 0 {
		t.Fatal("cross of a single part must be empty")
	}
}

func TestPartitionByLabelPanicsOnBadInput(t *testing.T) {
	g := paperGraph()
	mustPanic(t, func() { PartitionByLabel(g, make([]int32, 3), 2) })
	bad := make([]int32, g.NumVertices())
	bad[0] = 5
	mustPanic(t, func() { PartitionByLabel(g, bad, 2) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestEdgeInducedSubgraph(t *testing.T) {
	g := paperGraph()
	// Split off the edges incident to vertex 6 (g): {f,g}, {d,g}, {g,h}.
	_, sub := SplitEdges(g, func(u, v int32) bool { return u != 6 && v != 6 })
	if err := sub.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("kept %d edges, want 3", sub.NumEdges())
	}
	if sub.NumVertices() != 4 { // d, f, g, h
		t.Fatalf("kept %d vertices, want 4", sub.NumVertices())
	}
	// Nothing rejected → empty cross subgraph.
	_, empty := SplitEdges(g, func(u, v int32) bool { return true })
	if empty.NumVertices() != 0 || empty.NumEdges() != 0 {
		t.Fatal("keep-all predicate produced a non-empty cross subgraph")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := paperGraph()
	member := make([]bool, g.NumVertices())
	// Induce on the triangle {a, b, c}.
	member[0], member[1], member[2] = true, true, true
	sub := Subgraph(g, func(v int32) bool { return member[v] }, func(_, w int32) bool { return member[w] })
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced triangle has n=%d m=%d", sub.NumVertices(), sub.NumEdges())
	}
	for j, gv := range sub.ToGlobal {
		if gv != int32(j) {
			t.Fatalf("ToGlobal[%d] = %d", j, gv)
		}
	}
}

func TestPartitionLargeParallelPath(t *testing.T) {
	// Large enough to exercise the multi-chunk local-id assignment.
	n := 200000
	g := path(n)
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i % 4)
	}
	parts, cross := PartitionByLabel(g, label, 4)
	checkPartition(t, g, label, parts, cross)
	// A path labeled round-robin mod 4 has no intra-part edges.
	for i, p := range parts {
		if p.NumEdges() != 0 {
			t.Fatalf("part %d has %d edges, want 0", i, p.NumEdges())
		}
	}
	if cross.NumEdges() != g.NumEdges() {
		t.Fatal("all path edges must be cross edges")
	}
}

// TestBuildsKeepNoHeap: the subgraph and CSR builders allocate their
// temporaries per call, so once their results are dropped a collection
// takes the heap back to where it was. A buffer kept between calls for
// reuse, even a single n-sized int32 array, fails this.
func TestBuildsKeepNoHeap(t *testing.T) {
	const n = 1 << 19
	g := cycle(n)
	edges := g.Edges()
	label := make([]int32, n)
	member := make([]bool, n)
	for i := range label {
		label[i] = int32(i % 3)
		member[i] = i%3 != 0
	}
	keep := func(u, v int32) bool { return (u^v)&2 == 0 }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < 3; r++ {
		PartitionByLabel(g, label, 3)
		SplitEdges(g, keep)
		Subgraph(g, func(v int32) bool { return member[v] }, func(_, w int32) bool { return member[w] })
		FromEdges(n, edges)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew > n {
		t.Fatalf("the heap grew %d bytes across the builds, want at most %d", grew, n)
	}
	t.Logf("heap grew %d bytes", grew)
	// The inputs stay live across both readings, so their collection
	// cannot hide a retained buffer.
	runtime.KeepAlive(g)
	runtime.KeepAlive(edges)
	runtime.KeepAlive(label)
	runtime.KeepAlive(member)
}
