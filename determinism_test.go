package repro

// Determinism sweep: the runtime invariant behind every measured number in
// EXPERIMENTS.md (DESIGN.md §5) is that solver outputs do not depend on the
// worker count — parallelism changes only wall clock, never results. The
// persistent pool's dynamic chunk claiming makes the *schedule*
// intentionally nondeterministic, so this sweep pins down that outputs stay
// bit-identical for worker counts {1, 2, 3, 7, GOMAXPROCS} on two dataset
// analogs, for the baseline solver and the paper's Table I winner of each
// problem.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/par"
)

var sweepWorkers = func() []int {
	ws := []int{1, 2, 3, 7}
	if m := runtime.GOMAXPROCS(0); m != 1 && m != 2 && m != 3 && m != 7 {
		ws = append(ws, m)
	}
	return ws
}()

func sweepGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for _, name := range []string{"lp1", "coAuthorsCiteseer"} {
		spec, ok := dataset.Get(name)
		if !ok {
			t.Fatalf("unknown dataset analog %q", name)
		}
		gs[name] = dataset.Load(spec, 0.1, 1)
	}
	return gs
}

// TestDeterminismSweepSolvers asserts bit-identical matching, coloring and
// MIS outputs under every sweep worker count, on the CPU and on the
// virtual GPU.
func TestDeterminismSweepSolvers(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	graphs := sweepGraphs(t)

	type cfg struct {
		problem  core.Problem
		strategy core.Strategy
	}
	cfgs := []cfg{
		{core.ProblemMM, core.StrategyBaseline},
		{core.ProblemMM, core.StrategyRand},
		{core.ProblemColor, core.StrategyBaseline},
		{core.ProblemColor, core.StrategyDegk},
		{core.ProblemMIS, core.StrategyBaseline},
		{core.ProblemMIS, core.StrategyDegk},
		// MPX extension: exercises the frontier engine's pull path (dense
		// rounds) under every worker count, for all three problems.
		{core.ProblemMM, core.StrategyMPX},
		{core.ProblemColor, core.StrategyMPX},
		{core.ProblemMIS, core.StrategyMPX},
	}

	solve := func(g *graph.Graph, c cfg, arch core.Arch) *core.Result {
		res, err := core.Solve(g, c.problem, core.Options{Strategy: c.strategy, Arch: arch, Seed: 5})
		if err != nil {
			t.Fatalf("%v/%v/%v: %v", c.problem, c.strategy, arch, err)
		}
		return res
	}

	for name, g := range graphs {
		for _, c := range cfgs {
			for _, arch := range []core.Arch{core.ArchCPU, core.ArchGPU} {
				par.SetWorkers(1)
				ref := solve(g, c, arch)
				for _, w := range sweepWorkers[1:] {
					par.SetWorkers(w)
					got := solve(g, c, arch)
					label := func() string {
						return name + "/" + ref.Report.Strategy + "/" + arch.String()
					}
					switch c.problem {
					case core.ProblemMM:
						for v := range ref.Matching.Mate {
							if got.Matching.Mate[v] != ref.Matching.Mate[v] {
								t.Fatalf("%s: Mate[%d] = %d with %d workers, %d with 1",
									label(), v, got.Matching.Mate[v], w, ref.Matching.Mate[v])
							}
						}
					case core.ProblemColor:
						for v := range ref.Coloring.Color {
							if got.Coloring.Color[v] != ref.Coloring.Color[v] {
								t.Fatalf("%s: Color[%d] = %d with %d workers, %d with 1",
									label(), v, got.Coloring.Color[v], w, ref.Coloring.Color[v])
							}
						}
					case core.ProblemMIS:
						for v := range ref.IndepSet.In {
							if got.IndepSet.In[v] != ref.IndepSet.In[v] {
								t.Fatalf("%s: In[%d] = %v with %d workers, %v with 1",
									label(), v, got.IndepSet.In[v], w, ref.IndepSet.In[v])
							}
						}
					}
				}
			}
		}
	}
}

// TestDeterminismSweepConstruction asserts the CSR graph produced by the
// parallel builder (atomic degree count + parallel scatter + per-list sort)
// is identical under every sweep worker count.
func TestDeterminismSweepConstruction(t *testing.T) {
	defer par.SetWorkers(0)
	for _, name := range []string{"lp1", "coAuthorsCiteseer"} {
		spec, ok := dataset.Get(name)
		if !ok {
			t.Fatalf("unknown dataset analog %q", name)
		}
		par.SetWorkers(1)
		dataset.ClearCache()
		ref := dataset.Load(spec, 0.1, 1)
		refEdges := ref.Edges()
		for _, w := range sweepWorkers[1:] {
			par.SetWorkers(w)
			dataset.ClearCache()
			g := dataset.Load(spec, 0.1, 1)
			if g.NumVertices() != ref.NumVertices() || g.NumEdges() != ref.NumEdges() {
				t.Fatalf("%s: %d workers built |V|=%d |E|=%d, 1 worker built |V|=%d |E|=%d",
					name, w, g.NumVertices(), g.NumEdges(), ref.NumVertices(), ref.NumEdges())
			}
			edges := g.Edges()
			for i := range refEdges {
				if edges[i] != refEdges[i] {
					t.Fatalf("%s: edge %d = %v with %d workers, %v with 1",
						name, i, edges[i], w, refEdges[i])
				}
			}
		}
	}
	dataset.ClearCache()
}

// TestDeterminismSweepBinaryLoad asserts that the load path is invisible
// to the solvers: a graph served from a raw (mmap-backed where supported)
// or compressed (parallel-decoded) .scsr file produces bit-identical
// solution digests to the heap-built graph, under every sweep worker
// count — including the decode itself, which runs on the par pool.
func TestDeterminismSweepBinaryLoad(t *testing.T) {
	defer par.SetWorkers(0)
	spec, ok := dataset.Get("lp1")
	if !ok {
		t.Fatal("unknown dataset analog lp1")
	}
	par.SetWorkers(1)
	ref := dataset.Load(spec, 0.1, 1)
	dir := t.TempDir()
	paths := map[string]string{
		"raw":        dir + "/lp1-raw.scsr",
		"compressed": dir + "/lp1-comp.scsr",
	}
	if err := graph.WriteBinaryFile(paths["raw"], ref, graph.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinaryFile(paths["compressed"], ref, graph.BinaryOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}

	refRes, err := core.Solve(ref, core.ProblemMIS, core.Options{Strategy: core.StrategyDegk, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := refRes.SolutionDigest()

	for name, p := range paths {
		for _, w := range sweepWorkers {
			par.SetWorkers(w)
			bg, err := graph.OpenBinary(p)
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, w, err)
			}
			if bg.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("%s/%d workers: fingerprint %#x, want %#x",
					name, w, bg.Fingerprint(), ref.Fingerprint())
			}
			res, err := core.Solve(bg.Graph, core.ProblemMIS, core.Options{Strategy: core.StrategyDegk, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, w, err)
			}
			if got := res.SolutionDigest(); got != want {
				t.Fatalf("%s/%d workers: solution digest %#x, heap-built graph gave %#x",
					name, w, got, want)
			}
			if err := bg.Close(); err != nil {
				t.Fatalf("%s/%d workers: close: %v", name, w, err)
			}
		}
	}
}
