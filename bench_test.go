package repro

// Benchmarks regenerating the paper's tables and figures, one per artifact
// (DESIGN.md §4 maps experiment ids to these benchmarks). Each iteration
// runs the corresponding harness experiment over three representative
// instances at a reduced scale so `go test -bench=.` completes in minutes;
// cmd/benchall runs the full twelve-instance grid at scale 1.
//
// The interesting output is the ns/op of each experiment plus the shape
// notes the harness prints; absolute times are machine-dependent.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/matching"
	"repro/internal/mis"
)

// benchCfg is the shared benchmark configuration: three instances covering
// the regimes the paper's findings hinge on (chain-heavy lp1, geometric
// rgg, web-crawl webbase).
func benchCfg() harness.Config {
	return harness.Config{
		Scale:   0.15,
		Seed:    1,
		Repeats: 1,
		Graphs:  []string{"lp1", "rgg-n-2-23-s0", "webbase-1M"},
	}
}

func BenchmarkTable1Summary(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Table1(cfg)
	}
}

func BenchmarkTable2Stats(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Table2(cfg)
	}
}

func BenchmarkFig2Decomp(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Fig2(cfg)
	}
}

func BenchmarkFig3aMMCPU(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Fig3(cfg, core.ArchCPU)
	}
}

func BenchmarkFig3bMMGPU(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Fig3(cfg, core.ArchGPU)
	}
}

func BenchmarkFig4aColorCPU(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Fig4(cfg, core.ArchCPU)
	}
}

func BenchmarkFig4bColorGPU(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Fig4(cfg, core.ArchGPU)
	}
}

func BenchmarkFig5aMISCPU(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Fig5(cfg, core.ArchCPU)
	}
}

func BenchmarkFig5bMISGPU(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Fig5(cfg, core.ArchGPU)
	}
}

func BenchmarkColorCounts(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.ColorCounts(cfg)
	}
}

func BenchmarkAblationPartitions(b *testing.B) {
	cfg := benchCfg()
	cfg.Graphs = []string{"lp1"}
	for i := 0; i < b.N; i++ {
		harness.AblationParts(cfg)
	}
}

func BenchmarkAblationDegK(b *testing.B) {
	cfg := benchCfg()
	cfg.Graphs = []string{"lp1"}
	for i := 0; i < b.N; i++ {
		harness.AblationDegk(cfg)
	}
}

func BenchmarkAblationOrder(b *testing.B) {
	cfg := benchCfg()
	cfg.Graphs = []string{"lp1"}
	for i := 0; i < b.N; i++ {
		harness.AblationOrder(cfg)
	}
}

func BenchmarkMMProgress(b *testing.B) {
	cfg := benchCfg()
	cfg.Graphs = []string{"rgg-n-2-23-s0"}
	for i := 0; i < b.N; i++ {
		harness.MMProgress(cfg)
	}
}

func BenchmarkAblationRelabel(b *testing.B) {
	cfg := benchCfg()
	cfg.Graphs = []string{"rgg-n-2-23-s0"}
	for i := 0; i < b.N; i++ {
		harness.RelabelAblation(cfg)
	}
}

func BenchmarkAblationBFS(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.BFSAblation(cfg)
	}
}

func BenchmarkBaselines(b *testing.B) {
	cfg := benchCfg()
	cfg.Graphs = []string{"webbase-1M"}
	for i := 0; i < b.N; i++ {
		harness.Baselines(cfg)
	}
}

func BenchmarkExtBiconn(b *testing.B) {
	cfg := benchCfg()
	cfg.Graphs = []string{"webbase-1M"}
	for i := 0; i < b.N; i++ {
		harness.ExtBiconn(cfg)
	}
}

func BenchmarkRemark1(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Remark1(cfg)
	}
}

func BenchmarkQuality(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		harness.Quality(cfg)
	}
}

// Per-component microbenchmarks: the individual decompositions and solvers
// on one mid-size instance, for profiling regressions.

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	spec, _ := dataset.Get("webbase-1M")
	return dataset.Load(spec, 0.25, 1)
}

func BenchmarkDecompBridge(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.Bridge(g)
	}
}

func BenchmarkDecompRand(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.Rand(g, 10, 1)
	}
}

func BenchmarkDecompDegk(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.Degk(g, 2)
	}
}

func BenchmarkDecompMPX(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decomp.MPX(g, decomp.DefaultMPXBeta, 1)
	}
}

// BenchmarkFrontierHybridBFS times the direction-optimizing engine end to
// end (the BFS every BRIDGE decomposition starts with); the pull-threshold
// sweep lives in internal/frontier's BenchmarkEdgeMapBFSDiv.
func BenchmarkFrontierHybridBFS(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(frontier.Engine).BFSForest(g)
	}
}

func BenchmarkSolverGM(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.GM(g)
	}
}

func BenchmarkSolverMMRand(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.MMRand(g, 10, 1, matching.GMSolver(), nil)
	}
}

func BenchmarkSolverLuby(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.Luby(g, 1)
	}
}

func BenchmarkSolverMISDeg2(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mis.MISDeg2(g, mis.LubySolver(1), nil)
	}
}

func BenchmarkSolveAuto(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(g, core.ProblemMIS, core.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
