package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// fuzzGraph decodes fuzz bytes into a simple graph of at most 48
// vertices: the first byte is the vertex count (mod 49), every later pair
// of bytes an edge (mod the count).
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 || data[0]%49 == 0 {
		return graph.NewBuilder(0).Build()
	}
	n := int(data[0] % 49)
	b := graph.NewBuilder(n)
	for i := 1; i+1 < len(data); i += 2 {
		b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
	}
	return b.Build()
}

// FuzzSolve runs every problem × strategy × arch through SolveVerified on
// a decoded graph at 1, 2 and 7 workers, and requires one solution digest
// across the worker counts. Under plain `go test` the seed corpus runs as
// a regression test; `make fuzz-smoke` explores further.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})                               // path
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})                               // star
	f.Add([]byte{6, 0, 1, 1, 2, 0, 2, 2, 3, 3, 4, 4, 5, 3, 5})                   // two triangles and a bridge
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}) // K5
	f.Add([]byte{})                                                              // empty graph
	strategies := []Options{
		{Strategy: StrategyBaseline},
		{Strategy: StrategyBridge},
		{Strategy: StrategyRand, RandParts: 3},
		{Strategy: StrategyDegk},
		{Strategy: StrategyMPX},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer par.SetWorkers(0)
		g := fuzzGraph(data)
		for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
			for _, a := range []Arch{ArchCPU, ArchGPU} {
				for _, opt := range strategies {
					opt.Arch, opt.Seed = a, 1
					var want uint64
					for i, w := range []int{1, 2, 7} {
						par.SetWorkers(w)
						res, err := SolveVerified(g, p, opt)
						if err != nil {
							t.Fatalf("%v/%v/%v at %d workers: %v", p, opt.Strategy, a, w, err)
						}
						if d := res.SolutionDigest(); i == 0 {
							want = d
						} else if d != want {
							t.Fatalf("%v/%v/%v: digest %016x at %d workers, %016x at 1",
								p, opt.Strategy, a, d, w, want)
						}
					}
				}
			}
		}
	})
}
