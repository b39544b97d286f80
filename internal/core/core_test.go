package core

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/par"
)

func randomGraph(n, m int, seed uint64) *graph.Graph {
	r := par.NewRNG(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func TestSolveAllCombinationsVerify(t *testing.T) {
	g := randomGraph(600, 2400, 1)
	problems := []Problem{ProblemMM, ProblemColor, ProblemMIS}
	strategies := []Strategy{StrategyAuto, StrategyBaseline, StrategyBridge, StrategyRand, StrategyDegk}
	archs := []Arch{ArchCPU, ArchGPU}
	machine := bsp.New()
	for _, p := range problems {
		for _, s := range strategies {
			for _, a := range archs {
				res, err := Solve(g, p, Options{Strategy: s, Arch: a, Seed: 7, Machine: machine})
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", p, s, a, err)
				}
				if err := Verify(g, res); err != nil {
					t.Fatalf("%v/%v/%v: %v", p, s, a, err)
				}
				if res.Report.StrategyName == "" {
					t.Fatalf("%v/%v/%v: empty strategy name", p, s, a)
				}
				if res.Report.Problem != p || res.Report.Arch != a {
					t.Fatalf("%v/%v/%v: report echoes %v/%v", p, s, a, res.Report.Problem, res.Report.Arch)
				}
			}
		}
	}
}

func TestSolveExactlyOneSolution(t *testing.T) {
	g := randomGraph(100, 300, 2)
	for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
		res, err := Solve(g, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		if res.Matching != nil {
			count++
		}
		if res.Coloring != nil {
			count++
		}
		if res.IndepSet != nil {
			count++
		}
		if count != 1 {
			t.Fatalf("%v: %d solutions set", p, count)
		}
	}
}

func TestTableIStrategy(t *testing.T) {
	cases := []struct {
		p    Problem
		a    Arch
		want Strategy
	}{
		{ProblemMM, ArchCPU, StrategyRand},
		{ProblemMM, ArchGPU, StrategyRand},
		{ProblemColor, ArchCPU, StrategyDegk},
		{ProblemColor, ArchGPU, StrategyBaseline},
		{ProblemMIS, ArchCPU, StrategyDegk},
		{ProblemMIS, ArchGPU, StrategyDegk},
	}
	for _, c := range cases {
		if got := TableIStrategy(c.p, c.a); got != c.want {
			t.Fatalf("TableIStrategy(%v,%v) = %v, want %v", c.p, c.a, got, c.want)
		}
	}
}

func TestAutoResolvesPerProblem(t *testing.T) {
	g := randomGraph(200, 800, 3)
	res, err := Solve(g, ProblemColor, Options{Arch: ArchCPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.StrategyName != "COLOR-Degk" {
		t.Fatalf("auto CPU COLOR resolved to %q", res.Report.StrategyName)
	}
	res, err = Solve(g, ProblemColor, Options{Arch: ArchGPU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.StrategyName != "EB" {
		t.Fatalf("auto GPU COLOR resolved to %q", res.Report.StrategyName)
	}
}

func TestGPUStatsDelta(t *testing.T) {
	g := randomGraph(300, 1200, 4)
	machine := bsp.New()
	a, err := Solve(g, ProblemMIS, Options{Arch: ArchGPU, Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, ProblemMIS, Options{Arch: ArchGPU, Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.GPUStats.Launches <= 0 || b.Report.GPUStats.Launches <= 0 {
		t.Fatal("GPU stats not recorded")
	}
	// Same work → the per-run delta must not accumulate across runs.
	if b.Report.GPUStats.Launches > 2*a.Report.GPUStats.Launches {
		t.Fatalf("stats deltas accumulate: %d then %d",
			a.Report.GPUStats.Launches, b.Report.GPUStats.Launches)
	}
}

// TestColorGPUKernelStructure pins the kernel structure of COLOR on the
// GPU under every strategy: each speculative round — the baseline's, the
// decomposed strategies' part, repair and G_L rounds alike — is exactly
// four launches (pick, commit, detect, reset), and nothing else launches.
func TestColorGPUKernelStructure(t *testing.T) {
	for _, g := range []*graph.Graph{randomGraph(600, 2400, 1), randomGraph(2000, 2500, 3)} {
		for _, s := range []Strategy{StrategyBaseline, StrategyBridge, StrategyRand, StrategyDegk, StrategyMPX} {
			res, err := Solve(g, ProblemColor, Options{Strategy: s, Arch: ArchGPU, Seed: 7})
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			rep := res.Report
			if rep.Rounds == 0 || rep.GPUStats.Launches != 4*int64(rep.Rounds) {
				t.Errorf("%v on %d vertices: %d launches for %d rounds, want 4 per round",
					s, g.NumVertices(), rep.GPUStats.Launches, rep.Rounds)
			}
		}
	}
}

func TestSolveInvalidOptions(t *testing.T) {
	g := randomGraph(10, 20, 5)
	if _, err := Solve(g, ProblemMM, Options{RandParts: -1}); err == nil {
		t.Fatal("negative RandParts accepted")
	}
	if _, err := Solve(g, ProblemMM, Options{DegK: -2}); err == nil {
		t.Fatal("negative DegK accepted")
	}
	if _, err := Solve(g, Problem(99), Options{}); err == nil {
		t.Fatal("unknown problem accepted")
	}
}

func TestVerifyEmptyResult(t *testing.T) {
	if Verify(randomGraph(5, 5, 6), &Result{}) == nil {
		t.Fatal("empty result verified")
	}
}

func TestStringers(t *testing.T) {
	if ProblemMM.String() != "MM" || ProblemColor.String() != "COLOR" || ProblemMIS.String() != "MIS" {
		t.Fatal("Problem.String wrong")
	}
	if Problem(9).String() != "UNKNOWN" || Strategy(9).String() != "UNKNOWN" {
		t.Fatal("unknown stringers wrong")
	}
	if ArchCPU.String() != "CPU" || ArchGPU.String() != "GPU" {
		t.Fatal("Arch.String wrong")
	}
	for s, want := range map[Strategy]string{
		StrategyAuto: "AUTO", StrategyBaseline: "BASELINE",
		StrategyBridge: "BRIDGE", StrategyRand: "RAND", StrategyDegk: "DEGk",
	} {
		if s.String() != want {
			t.Fatalf("Strategy(%d).String() = %q", s, s.String())
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := randomGraph(400, 1600, 8)
	a, _ := Solve(g, ProblemMIS, Options{Strategy: StrategyRand, Seed: 5})
	b, _ := Solve(g, ProblemMIS, Options{Strategy: StrategyRand, Seed: 5})
	for i := range a.IndepSet.In {
		if a.IndepSet.In[i] != b.IndepSet.In[i] {
			t.Fatalf("MIS differs at %d under same seed", i)
		}
	}
}
