package graph

import (
	"slices"
	"testing"

	"repro/internal/par"
)

// sequentialCC is the oracle: BFS labeling.
func sequentialCC(g *Graph) ([]int32, int) {
	n := g.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	next := int32(0)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if label[s] != -1 {
			continue
		}
		label[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if label[w] == -1 {
					label[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return label, int(next)
}

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

func TestConnectedComponentsMatchesOracle(t *testing.T) {
	cases := []*Graph{
		path(1),
		path(10),
		cycle(9),
		complete(6),
		grid(13, 17),
		paperGraph(),
		randomGraph(500, 300, 1), // sparse: many components
		randomGraph(500, 5000, 2),
		FromEdges(10, nil), // 10 isolated vertices
	}
	for i, g := range cases {
		gotLabel, gotN := ConnectedComponents(g)
		wantLabel, wantN := sequentialCC(g)
		if gotN != wantN {
			t.Fatalf("case %d: %d components, want %d", i, gotN, wantN)
		}
		if !sameClassification(gotLabel, wantLabel) {
			t.Fatalf("case %d: component classification differs", i)
		}
	}
}

// reversedLists returns g with every adjacency list in descending order,
// as a raw .scsr file may carry them.
func reversedLists(g *Graph) *Graph {
	adj := slices.Clone(g.adj)
	for v := 0; v < g.NumVertices(); v++ {
		slices.Reverse(adj[g.off[v]:g.off[v+1]])
	}
	return &Graph{off: g.off, adj: adj}
}

// TestConnectedComponentsEqualBFSLabels: the labels are exactly the serial
// BFS labelling's, ids ordered by each component's smallest vertex, at
// several worker counts.
func TestConnectedComponentsEqualBFSLabels(t *testing.T) {
	defer par.SetWorkers(0)
	scattered := NewBuilder(5000) // triangles among isolated vertices
	for v := int32(0); v+6 < 5000; v += 7 {
		scattered.AddEdge(v+5, v+1)
		scattered.AddEdge(v+1, v+3)
		scattered.AddEdge(v+3, v+5)
	}
	cases := []struct {
		name string
		g    *Graph
	}{
		{"many components", randomGraph(20000, 9000, 4)},
		{"isolated vertices", scattered.Build()},
		{"100k path", RelabelRandom(path(100000), 5)},
		{"unsorted lists", reversedLists(randomGraph(20000, 15000, 6))},
	}
	for _, c := range cases {
		want, wantN := sequentialCC(c.g)
		for _, w := range []int{1, 2, 7} {
			par.SetWorkers(w)
			got, n := ConnectedComponents(c.g)
			if n != wantN || !slices.Equal(got, want) {
				t.Fatalf("%s, w=%d: %d components, want %d; labels equal: %v",
					c.name, w, n, wantN, slices.Equal(got, want))
			}
		}
	}
}

func TestConnectedComponentsLabelsDense(t *testing.T) {
	g := randomGraph(1000, 500, 3)
	label, nc := ConnectedComponents(g)
	seen := make([]bool, nc)
	for _, l := range label {
		if l < 0 || int(l) >= nc {
			t.Fatalf("label %d out of range [0,%d)", l, nc)
		}
		seen[l] = true
	}
	for c, s := range seen {
		if !s {
			t.Fatalf("component id %d unused", c)
		}
	}
}

func TestConnectAlreadyConnected(t *testing.T) {
	g := cycle(10)
	g2, added := Connect(g)
	if added != 0 {
		t.Fatalf("added %d edges to a connected graph", added)
	}
	if g2 != g {
		t.Fatal("Connect copied a connected graph")
	}
}

func TestConnectDisconnected(t *testing.T) {
	// Three components: a triangle, an edge, an isolated vertex.
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	g2, added := Connect(g)
	if added != 2 {
		t.Fatalf("added %d edges, want 2", added)
	}
	if _, nc := ConnectedComponents(g2); nc != 1 {
		t.Fatalf("still %d components after Connect", nc)
	}
	if g2.NumEdges() != g.NumEdges()+2 {
		t.Fatalf("edge count %d, want %d", g2.NumEdges(), g.NumEdges()+2)
	}
}

func TestConnectedComponentsLargeParallel(t *testing.T) {
	// Two large far-apart components exercise the parallel union pass
	// over multiple chunks.
	n := 100000
	b := NewBuilder(2 * n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
		b.AddEdge(int32(n+i), int32(n+i+1))
	}
	g := b.Build()
	label, nc := ConnectedComponents(g)
	if nc != 2 {
		t.Fatalf("%d components, want 2", nc)
	}
	for i := 0; i < n; i++ {
		if label[i] != 0 || label[n+i] != 1 {
			t.Fatalf("labels wrong at %d: %d/%d", i, label[i], label[n+i])
		}
	}
}
