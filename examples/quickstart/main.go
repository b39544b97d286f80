// Quickstart: build a graph, solve all three symmetry-breaking problems
// with the paper's best decomposition picked automatically (Table I), and
// verify every solution.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
)

func main() {
	// A web-crawl-like graph: hubs plus long degree-2 chains — the shape
	// the decomposition algorithms exploit.
	g := gen.Web(50000, 42)
	fmt.Printf("graph: %d vertices, %d edges, avg degree %.1f\n\n",
		g.NumVertices(), g.NumEdges(), g.AvgDegree())

	for _, p := range []core.Problem{core.ProblemMM, core.ProblemColor, core.ProblemMIS} {
		// StrategyAuto applies Table I: RAND for matching, DEGk for
		// coloring and MIS on the CPU.
		res, err := core.Solve(g, p, core.Options{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := core.Verify(g, res); err != nil {
			log.Fatalf("%v: %v", p, err)
		}
		fmt.Printf("%-6v via %-12s  decomp %-10v solve %-10v",
			p, res.Report.Strategy, res.Report.Decomp, res.Report.Solve)
		switch {
		case res.Matching != nil:
			fmt.Printf("  → %d matched edges\n", res.Matching.Cardinality())
		case res.Coloring != nil:
			fmt.Printf("  → %d colors\n", res.Coloring.NumColors())
		case res.IndepSet != nil:
			fmt.Printf("  → MIS of %d vertices\n", res.IndepSet.Size())
		}
	}

	// The same solve on the virtual GPU substrate.
	res, err := core.Solve(g, core.ProblemMIS, core.Options{Arch: core.ArchGPU, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGPU MIS via %s: %d kernel launches, simulated device time %v\n",
		res.Report.Strategy, res.Report.GPUStats.Launches, res.Report.GPUStats.SimTime)
}
