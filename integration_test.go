package repro

// Cross-module integration tests: random graphs through the full public
// pipeline (generate → decompose → solve every problem × strategy × arch →
// verify), plus property-based checks with testing/quick tying the module
// layers together.

import (
	"testing"
	"testing/quick"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
)

// quickGraph decodes fuzz bytes into a small simple graph.
func quickGraph(n int, edges []uint16) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(edges); i += 2 {
		b.AddEdge(int32(int(edges[i])%n), int32(int(edges[i+1])%n))
	}
	return b.Build()
}

func TestPropertyAllSolversAllGraphs(t *testing.T) {
	machine := bsp.New()
	cfgs := []core.Options{
		{Strategy: core.StrategyBaseline},
		{Strategy: core.StrategyBridge},
		{Strategy: core.StrategyRand, RandParts: 3},
		{Strategy: core.StrategyDegk},
		{Strategy: core.StrategyBaseline, Arch: core.ArchGPU, Machine: machine},
		{Strategy: core.StrategyDegk, Arch: core.ArchGPU, Machine: machine},
	}
	check := func(raw []uint16) bool {
		g := quickGraph(40, raw)
		for _, p := range []core.Problem{core.ProblemMM, core.ProblemColor, core.ProblemMIS} {
			for _, opt := range cfgs {
				opt.Seed = 5
				res, err := core.Solve(g, p, opt)
				if err != nil {
					t.Logf("%v: %v", p, err)
					return false
				}
				if err := core.Verify(g, res); err != nil {
					t.Logf("%v/%v/%v: %v", p, opt.Strategy, opt.Arch, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecompositionsConserveEdges(t *testing.T) {
	check := func(raw []uint16, k uint8) bool {
		g := quickGraph(60, raw)
		parts := int(k)%6 + 1
		for _, r := range []*decomp.Result{
			decomp.Bridge(g),
			decomp.Rand(g, parts, 3),
			decomp.Degk(g, 2),
			decomp.MPX(g, decomp.DefaultMPXBeta, 3),
			decomp.Multilevel(g, parts, 3),
		} {
			if r.PartEdges()+r.CrossEdges() != g.NumEdges() {
				t.Logf("%v: %d + %d != %d", r.Technique, r.PartEdges(), r.CrossEdges(), g.NumEdges())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySolutionSizesSane(t *testing.T) {
	// Cross-solution sanity: on any graph, |MIS| ≥ n / (Δ+1), a maximal
	// matching has ≥ |MIS-complement|/2-ish edges... keep to the two
	// robust bounds: |MIS| ≥ n/(Δ+1) and colors ≤ Δ+1.
	check := func(raw []uint16) bool {
		g := quickGraph(50, raw)
		n := int64(g.NumVertices())
		maxDeg := int64(g.MaxDegree())
		misRes, _ := core.Solve(g, core.ProblemMIS, core.Options{Seed: 2})
		if misRes.IndepSet.Size()*(maxDeg+1) < n {
			t.Logf("MIS %d too small for n=%d Δ=%d", misRes.IndepSet.Size(), n, maxDeg)
			return false
		}
		// Δ+1 bounds the greedy baseline. (COLOR-Degk's disjoint G_L
		// palette may exceed it — that is the paper's measured ~3% color
		// overhead, checked separately in the harness tests.)
		colRes, _ := core.Solve(g, core.ProblemColor, core.Options{Strategy: core.StrategyBaseline, Seed: 2})
		if int64(colRes.Coloring.NumColors()) > maxDeg+1 {
			t.Logf("colors %d exceed Δ+1 = %d", colRes.Coloring.NumColors(), maxDeg+1)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetInstancesThroughAutoSolve(t *testing.T) {
	// Every registered instance solves and verifies under the Table I
	// strategies on both architectures, at a tiny scale.
	defer dataset.ClearCache()
	machine := bsp.New()
	for _, spec := range dataset.All() {
		g := dataset.Load(spec, 0.02, 3)
		for _, p := range []core.Problem{core.ProblemMM, core.ProblemColor, core.ProblemMIS} {
			for _, arch := range []core.Arch{core.ArchCPU, core.ArchGPU} {
				res, err := core.Solve(g, p, core.Options{Arch: arch, Seed: 1, Machine: machine})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", spec.Name, p, arch, err)
				}
				if err := core.Verify(g, res); err != nil {
					t.Fatalf("%s/%v/%v: %v", spec.Name, p, arch, err)
				}
			}
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// All seeded algorithms must give identical results under any worker
	// count (the determinism claim in DESIGN.md §5).
	g := quickGraph(200, func() []uint16 {
		r := par.NewRNG(9)
		out := make([]uint16, 1200)
		for i := range out {
			out[i] = uint16(r.Uint64())
		}
		return out
	}())
	type snapshot struct {
		mis   []bool
		color []int32
		mate  []int32
	}
	run := func() snapshot {
		misRes, _ := core.Solve(g, core.ProblemMIS, core.Options{Strategy: core.StrategyRand, Seed: 4})
		colRes, _ := core.Solve(g, core.ProblemColor, core.Options{Strategy: core.StrategyDegk, Seed: 4})
		mmRes, _ := core.Solve(g, core.ProblemMM, core.Options{Strategy: core.StrategyRand, Seed: 4})
		return snapshot{misRes.IndepSet.In, colRes.Coloring.Color, mmRes.Matching.Mate}
	}
	par.SetWorkers(1)
	one := run()
	par.SetWorkers(7)
	seven := run()
	par.SetWorkers(0)
	def := run()
	for i := range one.mis {
		if one.mis[i] != seven.mis[i] || one.mis[i] != def.mis[i] {
			t.Fatalf("MIS differs at %d across worker counts", i)
		}
		if one.color[i] != seven.color[i] || one.color[i] != def.color[i] {
			t.Fatalf("coloring differs at %d across worker counts", i)
		}
		if one.mate[i] != seven.mate[i] || one.mate[i] != def.mate[i] {
			t.Fatalf("matching differs at %d across worker counts", i)
		}
	}
}
