package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/par"
)

// subEdges lists a Sub's edges in parent ids. ToGlobal is increasing, so
// the list comes out sorted like Graph.Edges.
func subEdges(s *Sub) []Edge {
	es := s.G.Edges()
	for i, e := range es {
		es[i] = Edge{s.ToGlobal[e.U], s.ToGlobal[e.V]}
	}
	return es
}

// checkSub validates a Sub's graph and requires strictly increasing
// ToGlobal.
func checkSub(t *testing.T, what string, s *Sub) {
	t.Helper()
	if err := s.G.Validate(); err != nil {
		t.Fatalf("%s invalid: %v", what, err)
	}
	for j := 1; j < len(s.ToGlobal); j++ {
		if s.ToGlobal[j-1] >= s.ToGlobal[j] {
			t.Fatalf("%s ToGlobal not increasing at %d", what, j)
		}
	}
}

// TestBuildersMatchBruteForce checks SplitEdges, KeepEdges and Subgraph
// against a brute-force filter of g.Edges(), at several worker counts: the
// kept graph keeps every vertex id, the cross Sub holds exactly the
// rejected edges over exactly their endpoints, the two together are E with
// no edge in both, KeepEdges builds SplitEdges' kept graph, Subgraph keeps
// every member and exactly the member-to-member edges its arc predicate
// accepts, both when that is every such edge and when keep drops some, and
// the induced Subgraph equals part 1 of PartitionByLabel on the mask.
func TestBuildersMatchBruteForce(t *testing.T) {
	defer par.SetWorkers(0)
	type input struct {
		name   string
		g      *Graph
		keep   func(u, v int32) bool
		member []bool
	}
	hashKeep := func(seed uint64) func(u, v int32) bool {
		return func(u, v int32) bool { return par.Hash2(seed, int64(u), int64(v))%3 != 0 }
	}
	hashMask := func(n int, seed uint64) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = par.Hash64(seed, int64(i))&1 == 0
		}
		return m
	}
	all := func(u, v int32) bool { return true }
	none := func(u, v int32) bool { return false }
	var inputs []input
	for i, sz := range [][2]int{{1, 0}, {40, 60}, {500, 3000}, {20000, 80000}} {
		g := randomGraph(sz[0], sz[1], uint64(i+1))
		inputs = append(inputs, input{fmt.Sprintf("random-%d", sz[0]), g,
			hashKeep(uint64(i + 7)), hashMask(sz[0], uint64(i+11))})
	}
	pg := paperGraph()
	inputs = append(inputs,
		input{"paper-bridges", pg, func(u, v int32) bool {
			e := Edge{u, v}.Canon()
			return e != Edge{2, 3} && e != Edge{6, 7}
		}, []bool{true, true, true, false, false, false, false, false}},
		input{"paper-all", pg, all, make([]bool, 8)},
		input{"paper-none", pg, none, []bool{true, true, true, true, true, true, true, true}},
		input{"cycle-none", cycle(10), none, hashMask(10, 3)},
		input{"empty-all", &Graph{}, all, nil},
		input{"empty-none", &Graph{}, none, nil},
	)

	for _, w := range []int{1, 2, 7} {
		par.SetWorkers(w)
		for _, in := range inputs {
			g, n := in.g, in.g.NumVertices()
			var wantKept, wantCross []Edge
			for _, e := range g.Edges() {
				if in.keep(e.U, e.V) {
					wantKept = append(wantKept, e)
				} else {
					wantCross = append(wantCross, e)
				}
			}
			kept, cross := SplitEdges(g, in.keep)
			if err := kept.Validate(); err != nil {
				t.Fatalf("w=%d %s: kept invalid: %v", w, in.name, err)
			}
			if kept.NumVertices() != n {
				t.Fatalf("w=%d %s: kept has %d vertices, g has %d", w, in.name, kept.NumVertices(), n)
			}
			if got := kept.Edges(); !slices.Equal(got, wantKept) {
				t.Fatalf("w=%d %s: kept edges %v, want %v", w, in.name, got, wantKept)
			}
			if only := KeepEdges(g, in.keep); !slices.Equal(only.off, kept.off) || !slices.Equal(only.adj, kept.adj) {
				t.Fatalf("w=%d %s: KeepEdges differs from SplitEdges' kept graph", w, in.name)
			}
			checkSub(t, in.name+" cross", cross)
			if got := subEdges(cross); !slices.Equal(got, wantCross) {
				t.Fatalf("w=%d %s: cross edges %v, want %v", w, in.name, got, wantCross)
			}
			for j := range cross.ToGlobal {
				if cross.G.Degree(int32(j)) == 0 {
					t.Fatalf("w=%d %s: cross keeps isolated vertex %d", w, in.name, cross.ToGlobal[j])
				}
			}
			if kept.NumEdges()+cross.NumEdges() != g.NumEdges() {
				t.Fatalf("w=%d %s: kept %d + cross %d edges, g has %d", w, in.name,
					kept.NumEdges(), cross.NumEdges(), g.NumEdges())
			}

			member := func(v int32) bool { return in.member[v] }
			var wantVerts []int32
			for v, ok := range in.member {
				if ok {
					wantVerts = append(wantVerts, int32(v))
				}
			}
			// The induced subgraph, and the member-to-member edges that
			// keep also accepts, over every member, isolated ones too.
			for _, arcs := range []struct {
				name string
				keep func(v, w int32) bool
			}{
				{"induced", func(_, w int32) bool { return in.member[w] }},
				{"kept", func(v, w int32) bool { return in.member[w] && in.keep(v, w) }},
			} {
				sub := Subgraph(g, member, arcs.keep)
				checkSub(t, in.name+" "+arcs.name, sub)
				var wantEdges []Edge
				for _, e := range g.Edges() {
					if in.member[e.U] && arcs.keep(e.U, e.V) {
						wantEdges = append(wantEdges, e)
					}
				}
				if !slices.Equal(sub.ToGlobal, wantVerts) || !slices.Equal(subEdges(sub), wantEdges) {
					t.Fatalf("w=%d %s: %s subgraph differs from the brute-force filter", w, in.name, arcs.name)
				}
			}
			label := make([]int32, n)
			for v, ok := range in.member {
				if ok {
					label[v] = 1
				}
			}
			sub := Subgraph(g, member, func(_, w int32) bool { return in.member[w] })
			parts, _ := PartitionByLabel(g, label, 2)
			if !slices.Equal(sub.ToGlobal, parts[1].ToGlobal) ||
				sub.G.Fingerprint() != parts[1].G.Fingerprint() {
				t.Fatalf("w=%d %s: the induced Subgraph differs from PartitionByLabel's part 1", w, in.name)
			}
		}
	}
}

// perArcKeep is the reference kept graph: a degree pass and a fill pass
// that test keep on every arc.
func perArcKeep(g *Graph, keep func(u, v int32) bool) *Graph {
	n := g.NumVertices()
	off := make([]int64, n+1)
	var adj []int32
	for v := int32(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			if keep(v, w) {
				adj = append(adj, w)
			}
		}
		off[v+1] = int64(len(adj))
	}
	return &Graph{off: off, adj: adj}
}

// TestSplitsMatchPerArcFill: KeepEdges and SplitEdges, which copy a list
// whole when it keeps every arc and return g itself when nothing is cut,
// build the arrays of the per-arc fill, also on unsorted lists, when keep
// cuts nothing, everything, one edge or a random half, at 1, 2 and 7
// workers.
func TestSplitsMatchPerArcFill(t *testing.T) {
	defer par.SetWorkers(0)
	base := randomGraph(30000, 120000, 9)
	cut := base.Edges()[len(base.Edges())/3]
	keeps := map[string]func(u, v int32) bool{
		"nothing":     func(u, v int32) bool { return true },
		"everything":  func(u, v int32) bool { return false },
		"one-edge":    func(u, v int32) bool { return Edge{u, v}.Canon() != cut },
		"random-half": func(u, v int32) bool { return par.Hash2(4, int64(min(u, v)), int64(max(u, v)))&1 == 0 },
	}
	for _, g := range []*Graph{base, reversedLists(base)} {
		for name, keep := range keeps {
			want := perArcKeep(g, keep)
			for _, w := range []int{1, 2, 7} {
				par.SetWorkers(w)
				only := KeepEdges(g, keep)
				kept, cross := SplitEdges(g, keep)
				for what, got := range map[string]*Graph{"KeepEdges": only, "SplitEdges": kept} {
					if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) {
						t.Fatalf("%s, %d workers: %s differs from the per-arc fill", name, w, what)
					}
				}
				if (name == "nothing") != (only == g) || (name == "nothing") != (kept == g) {
					t.Fatalf("%s, %d workers: kept graph is g: %v, want %v", name, w, kept == g, name == "nothing")
				}
				if kept.NumEdges()+cross.NumEdges() != g.NumEdges() {
					t.Fatalf("%s, %d workers: kept %d + cross %d edges, g has %d", name, w,
						kept.NumEdges(), cross.NumEdges(), g.NumEdges())
				}
			}
		}
	}
}
