package frontier

import (
	"slices"
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

func gridGraph(r, c int) *graph.Graph {
	b := graph.NewBuilder(r * c)
	id := func(i, j int) int32 { return int32(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j))
			}
		}
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

// setBits counts the bits of b set in [0, n).
func setBits(b *par.Bitset, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if b.Test(i) {
			c++
		}
	}
	return c
}

// contains reports membership of v through the subset's sorted list.
func contains(s *Subset, v int32) bool {
	_, ok := slices.BinarySearch(s.Vertices(), v)
	return ok
}

func equalVerts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewSortsUnsortedInput(t *testing.T) {
	s := New(10, []int32{7, 2, 9, 0})
	if !equalVerts(s.Vertices(), []int32{0, 2, 7, 9}) {
		t.Fatalf("Vertices = %v", s.Vertices())
	}
	if s.Size() != 4 || s.IsEmpty() {
		t.Fatalf("size wrong: %d", s.Size())
	}
	for _, v := range []int32{0, 2, 7, 9} {
		if !contains(s, v) || !s.Bitset().Test(int(v)) {
			t.Fatalf("%d missing", v)
		}
	}
	for _, v := range []int32{1, 3, 8} {
		if contains(s, v) || s.Bitset().Test(int(v)) {
			t.Fatalf("%d present", v)
		}
	}
}

func TestEmptySubset(t *testing.T) {
	s := Empty(16)
	if !s.IsEmpty() || s.Size() != 0 {
		t.Fatal("Empty not empty")
	}
	if len(s.Vertices()) != 0 {
		t.Fatalf("Vertices = %v", s.Vertices())
	}
	if setBits(s.Bitset(), 16) != 0 {
		t.Fatal("empty bitset has set bits")
	}
	if contains(s, 3) {
		t.Fatal("empty subset holds 3")
	}
}

func TestAllSubset(t *testing.T) {
	all := make([]int32, 9)
	par.Iota(all)
	s := New(9, all)
	if s.Size() != 9 {
		t.Fatalf("Size = %d", s.Size())
	}
	vs := s.Vertices()
	for i := range vs {
		if vs[i] != int32(i) {
			t.Fatalf("Vertices[%d] = %d", i, vs[i])
		}
	}
	if setBits(s.Bitset(), 9) != 9 {
		t.Fatal("full bitset incomplete")
	}
}

// TestSparseDenseRoundTrip covers the conversion edge cases: a bitset of
// scattered (isolated) vertices must gather into a sorted list, a sparse
// list must densify into exactly its members, and both representations
// must agree after materialization.
func TestSparseDenseRoundTrip(t *testing.T) {
	const n = 257 // crosses word boundaries
	bits := par.NewBitset(n)
	want := []int32{0, 5, 63, 64, 65, 200, 256}
	for _, v := range want {
		bits.Set(int(v))
	}
	s := &Subset{n: n, size: setBits(bits, n), bits: bits}
	if s.Size() != len(want) {
		t.Fatalf("Size = %d, want %d", s.Size(), len(want))
	}
	if !equalVerts(s.Vertices(), want) {
		t.Fatalf("Vertices = %v, want %v", s.Vertices(), want)
	}

	// Sparse → dense.
	sp := New(n, append([]int32(nil), want...))
	if sp.bits != nil {
		t.Fatal("fresh sparse subset claims dense")
	}
	dense := sp.Bitset()
	if sp.bits == nil {
		t.Fatal("Bitset() did not materialize")
	}
	if c := setBits(dense, n); c != len(want) {
		t.Fatalf("dense count = %d", c)
	}
	for v := 0; v < n; v++ {
		in := false
		for _, w := range want {
			if int32(v) == w {
				in = true
			}
		}
		if dense.Test(v) != in {
			t.Fatalf("bit %d = %v, want %v", v, dense.Test(v), in)
		}
	}
}

func TestUnion(t *testing.T) {
	a := New(10, []int32{1, 3, 5})
	b := New(10, []int32{3, 4, 9})
	u := Union(a, b)
	if !equalVerts(u.Vertices(), []int32{1, 3, 4, 5, 9}) {
		t.Fatalf("Union = %v", u.Vertices())
	}
	if got := Union(Empty(10), a); got != a {
		t.Fatal("Union(empty, a) != a")
	}
	if got := Union(a, Empty(10)); got != a {
		t.Fatal("Union(a, empty) != a")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Union over different universes did not panic")
		}
	}()
	Union(a, New(11, []int32{1}))
}

func TestFilterAndMap(t *testing.T) {
	s := New(20, []int32{0, 3, 6, 9, 12, 15, 18})
	f := Filter(s, func(v int32) bool { return v%2 == 0 })
	if !equalVerts(f.Vertices(), []int32{0, 6, 12, 18}) {
		t.Fatalf("Filter = %v", f.Vertices())
	}
	hits := make([]int32, 20)
	Map(f, func(v int32) { hits[v] = 1 })
	var total int32
	for _, h := range hits {
		total += h
	}
	if total != int32(f.Size()) {
		t.Fatalf("Map hit %d vertices, want %d", total, f.Size())
	}
}

// bfsLevels runs a BFS over the engine and returns the level array plus the
// concatenated per-round frontiers (the determinism witness).
func bfsLevels(g *graph.Graph, root int32, eng *Engine) ([]int32, []int32) {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	visited := par.NewBitset(n)
	visited.Set(int(root))
	level[root] = 0
	f := New(n, []int32{root})
	var seq []int32
	lv := int32(0)
	for !f.IsEmpty() {
		seq = append(seq, f.Vertices()...)
		seq = append(seq, -1) // round separator
		lv++
		cur := lv
		f = eng.EdgeMap(g, f, Ops{
			Cond: func(v int32) bool { return !visited.Test(int(v)) },
			Update: func(u, v int32) bool {
				if visited.TestAndSet(int(v)) {
					level[v] = cur
					return true
				}
				return false
			},
		})
	}
	return level, seq
}

func sequentialLevels(g *graph.Graph, root int32) []int32 {
	n := g.NumVertices()
	lvl := make([]int32, n)
	for i := range lvl {
		lvl[i] = -1
	}
	lvl[root] = 0
	q := []int32{root}
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
	return lvl
}

// TestEdgeMapDirectionsAgree forces push-only, pull-only and the default
// hybrid over the same BFS and requires identical levels and identical
// per-round frontiers — the push and pull kernels implement the same map.
func TestEdgeMapDirectionsAgree(t *testing.T) {
	for _, g := range []*graph.Graph{pathGraph(300), gridGraph(20, 30), randomGraph(500, 2500, 3)} {
		n := g.NumVertices()
		want := sequentialLevels(g, 0)
		pushLv, pushSeq := bfsLevels(g, 0, &Engine{PullDiv: NoPull})
		pullLv, pullSeq := bfsLevels(g, 0, &Engine{PullDiv: n + 1})
		hybLv, hybSeq := bfsLevels(g, 0, &Engine{})
		for v := 0; v < n; v++ {
			if pushLv[v] != want[v] || pullLv[v] != want[v] || hybLv[v] != want[v] {
				t.Fatalf("level[%d]: push %d pull %d hybrid %d oracle %d",
					v, pushLv[v], pullLv[v], hybLv[v], want[v])
			}
		}
		if !equalVerts(pushSeq, pullSeq) || !equalVerts(pushSeq, hybSeq) {
			t.Fatal("per-round frontiers differ between directions")
		}
	}
}

// TestEdgeMapDeterministicAcrossWorkers pins the engine's central contract:
// frontier membership and order are bit-identical for 1/2/4/8 workers.
func TestEdgeMapDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	g := randomGraph(2000, 12000, 7)
	par.SetWorkers(1)
	refLv, refSeq := bfsLevels(g, 0, &Engine{})
	for _, w := range []int{2, 4, 8} {
		par.SetWorkers(w)
		lv, seq := bfsLevels(g, 0, &Engine{})
		if !equalVerts(seq, refSeq) {
			t.Fatalf("frontier sequence differs with %d workers", w)
		}
		for v := range refLv {
			if lv[v] != refLv[v] {
				t.Fatalf("level[%d] = %d with %d workers, %d with 1", v, lv[v], w, refLv[v])
			}
		}
	}
}

// TestEdgeMapDedup exercises Ops.Dedup: an Update that keeps returning true
// (a CAS-min that improves repeatedly) must still yield a duplicate-free
// subset.
func TestEdgeMapDedup(t *testing.T) {
	// Star: center 0 joined to 1..9; frontier = all leaves, every leaf's
	// update on 0 returns true.
	b := graph.NewBuilder(10)
	for i := 1; i < 10; i++ {
		b.AddEdge(0, int32(i))
	}
	g := b.Build()
	leaves := make([]int32, 9)
	for i := range leaves {
		leaves[i] = int32(i + 1)
	}
	eng := &Engine{PullDiv: NoPull}
	out := eng.EdgeMap(g, New(10, leaves), Ops{
		Dedup:  true,
		Cond:   func(v int32) bool { return v == 0 },
		Update: func(u, v int32) bool { return true },
	})
	if !equalVerts(out.Vertices(), []int32{0}) {
		t.Fatalf("dedup output = %v", out.Vertices())
	}
}

// TestEngineCounters checks the direction bookkeeping the telemetry and the
// hybrid tests rely on.
func TestEngineCounters(t *testing.T) {
	g := pathGraph(100)
	eng := &Engine{PullDiv: NoPull}
	bfsLevels(g, 0, eng)
	if eng.Pulls != 0 || eng.Pushes == 0 {
		t.Fatalf("push-only counters: %+v", eng)
	}
	// On a random graph the BFS frontier balloons past n/16 within a couple
	// of hops and shrinks back: the default engine must record both
	// directions, so at least one switch.
	g = randomGraph(500, 2500, 3)
	eng = &Engine{}
	bfsLevels(g, 0, eng)
	if eng.Pushes == 0 || eng.Pulls == 0 {
		t.Fatalf("hybrid counters: %+v", eng)
	}
}

// TestEnginePullDiv pins the direction switch: bottom-up while the
// frontier exceeds n/PullDiv, zero meaning DefaultPullDiv, NoPull never.
func TestEnginePullDiv(t *testing.T) {
	for _, c := range []struct {
		div, size int
		pull      bool
	}{
		{2, 60, true}, {2, 50, false},
		{0, 100/DefaultPullDiv + 1, true}, {0, 100 / DefaultPullDiv, false},
		{NoPull, 100, false},
	} {
		e := &Engine{PullDiv: c.div}
		if got := e.pullRound(c.size, 100); got != c.pull {
			t.Errorf("PullDiv %d, frontier %d/100: pull = %v, want %v", c.div, c.size, got, c.pull)
		}
	}
}
