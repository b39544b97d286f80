package coloring

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/par"
)

// speculateReference is speculate's rule run serially with no state kept
// between rounds: in every round each work vertex rescans its whole
// adjacency for the smallest color ≥ base that no neighbour holds, all
// picks commit, the loser of every monochromatic edge resets, and the
// reset vertices are the next round's work. It returns the rounds and the
// work summed over rounds.
func speculateReference(g *graph.Graph, color, work []int32, base int32) (rounds int, worked int64) {
	cand := make([]int32, g.NumVertices())
	taken := make([]bool, g.MaxDegree()+1)
	for len(work) > 0 {
		rounds++
		worked += int64(len(work))
		for _, v := range work {
			clear(taken)
			for _, w := range g.Neighbors(v) {
				if d := color[w] - base; d >= 0 && int(d) < len(taken) {
					taken[d] = true
				}
			}
			cand[v] = base + int32(slices.Index(taken, false))
		}
		for _, v := range work {
			color[v] = cand[v]
		}
		var lost []int32
		for _, v := range work {
			for _, w := range g.Neighbors(v) {
				if color[w] == color[v] && loses(v, w) {
					lost = append(lost, v)
					break
				}
			}
		}
		for _, v := range lost {
			color[v] = Uncolored
		}
		work = lost
	}
	return rounds, worked
}

// speculateCase is one starting point: a partial coloring and the
// Uncolored vertices to color.
type speculateCase struct {
	name  string
	g     *graph.Graph
	color []int32
	work  []int32
}

// speculateCases returns every graph twice: once with every third vertex
// pre-colored v % 100, which puts fixed neighbours in several 32-color
// bands, and once with every vertex to color.
func speculateCases() []speculateCase {
	graphs := testGraphs()
	graphs["complete-70"] = completeGraph(70)
	graphs["random-2000"] = randomGraph(2000, 60000, 9)
	kron, _ := dataset.Get("kron-g500-logn20")
	graphs["kron-0.1"] = kron.Build(0.1, 1)
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	slices.Sort(names)
	var cases []speculateCase
	for _, name := range names {
		g := graphs[name]
		n := g.NumVertices()
		pre := speculateCase{name: name + "/pre-colored", g: g, color: make([]int32, n)}
		all := speculateCase{name: name + "/all-work", g: g, color: make([]int32, n)}
		for v := int32(0); v < int32(n); v++ {
			all.color[v] = Uncolored
			all.work = append(all.work, v)
			if v%3 == 0 {
				pre.color[v] = v % 100
			} else {
				pre.color[v] = Uncolored
				pre.work = append(pre.work, v)
			}
		}
		cases = append(cases, pre, all)
	}
	return cases
}

func TestSpeculateMatchesReference(t *testing.T) {
	defer par.SetWorkers(0)
	for _, tc := range speculateCases() {
		for _, base := range []int32{0, 10} {
			want := slices.Clone(tc.color)
			rounds, worked := speculateReference(tc.g, want, slices.Clone(tc.work), base)
			checkWorkColored(t, tc, want, base)
			for _, w := range []int{1, 2, 7} {
				par.SetWorkers(w)
				type run struct {
					name  string
					solve func(color []int32) Stats
				}
				runs := []run{{"speculate on bsp", func(color []int32) Stats {
					return speculate(tc.g, color, slices.Clone(tc.work), base, bsp.New().In(nil), nil)
				}}}
				if base == 0 {
					runs = append(runs, run{"VB", func(color []int32) Stats {
						return NewVB().Repair(tc.g, color, slices.Clone(tc.work), nil)
					}}, run{"EB", func(color []int32) Stats {
						m := bsp.New()
						st := NewEB(m).Repair(tc.g, color, slices.Clone(tc.work), nil)
						if s := m.Stats(); s.Launches != int64(4*st.Rounds) || s.ThreadsRun != 4*worked {
							t.Fatalf("%s, %d workers: EB made %d launches of %d threads, want %d of %d",
								tc.name, w, s.Launches, s.ThreadsRun, 4*st.Rounds, 4*worked)
						}
						return st
					}})
				}
				for _, r := range runs {
					got := slices.Clone(tc.color)
					st := r.solve(got)
					label := fmt.Sprintf("%s, base %d, %s, %d workers", tc.name, base, r.name, w)
					if st.Rounds != rounds {
						t.Fatalf("%s: %d rounds, the reference %d", label, st.Rounds, rounds)
					}
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("%s: color[%d] = %d, the reference says %d", label, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// checkWorkColored requires every work vertex to hold a color ≥ base that
// none of its neighbours holds, so the reference itself is sound.
func checkWorkColored(t *testing.T, tc speculateCase, color []int32, base int32) {
	t.Helper()
	for _, v := range tc.work {
		if color[v] < base {
			t.Fatalf("%s, base %d: reference gave vertex %d color %d", tc.name, base, v, color[v])
		}
		for _, w := range tc.g.Neighbors(v) {
			if color[w] == color[v] {
				t.Fatalf("%s, base %d: reference left edge {%d,%d} monochromatic", tc.name, base, v, w)
			}
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
