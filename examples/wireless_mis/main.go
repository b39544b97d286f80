// Wireless broadcast scheduling on a random geometric graph via repeated
// MIS — the topology-control application the paper cites for MIS.
//
// Nodes within radio range interfere, so a round may only activate an
// independent set. Repeatedly extracting a maximal independent set from
// the residual graph yields an interference-free broadcast schedule; the
// number of rounds is the schedule length. The example compares LubyMIS
// with the decomposition-accelerated MIS-Deg2 as the per-round solver and
// validates the schedule.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
)

func main() {
	// A field deployment: a dense urban core (random geometric placement)
	// plus relay chains running out to remote sensors — the chains are the
	// degree ≤ 2 structure that MIS-Deg2 peels off cheaply.
	const coreNodes = 40000
	core := gen.RGG(coreNodes, gen.DegreeRadius(coreNodes, 12), 9)
	g := gen.PadChains(core, 25000, 8, 11)
	fmt.Printf("radio network: %d nodes, %d interference pairs, avg degree %.1f\n\n",
		g.NumVertices(), g.NumEdges(), g.AvgDegree())

	// One round's worth of scheduling — a single MIS — is where the DEG2
	// decomposition pays: the relay chains are peeled off by the cheap
	// bounded-degree solver before LubyMIS sees the rest.
	start := time.Now()
	one, lubyStats := mis.Luby(g, 4)
	fmt.Printf("single MIS, LubyMIS:  %8v  %2d rounds  %d nodes\n",
		time.Since(start).Round(time.Microsecond), lubyStats.Rounds, one.Size())
	start = time.Now()
	one2, rep := mis.MISDeg2(g, mis.LubySolver(4), nil)
	fmt.Printf("single MIS, MIS-Deg2: %8v  %2d rounds  %d nodes (decomp %v)\n\n",
		time.Since(start).Round(time.Microsecond), rep.Rounds, one2.Size(), rep.Decomp)

	for _, solver := range []struct {
		name string
		run  func(*graph.Graph) *mis.IndepSet
	}{
		{"LubyMIS", func(h *graph.Graph) *mis.IndepSet {
			s, _ := mis.Luby(h, 4)
			return s
		}},
		{"MIS-Deg2", func(h *graph.Graph) *mis.IndepSet {
			s, _ := mis.MISDeg2(h, mis.LubySolver(4), nil)
			return s
		}},
	} {
		start := time.Now()
		schedule := buildSchedule(g, solver.run)
		elapsed := time.Since(start)
		if err := validateSchedule(g, schedule); err != nil {
			log.Fatalf("%s: %v", solver.name, err)
		}
		fmt.Printf("%-9s: %d rounds, %v total\n", solver.name, len(schedule), elapsed)
	}
}

// buildSchedule repeatedly extracts an MIS from the residual graph until
// every node has a slot. Returns one vertex set (of original ids) per round.
func buildSchedule(g *graph.Graph, solve func(*graph.Graph) *mis.IndepSet) [][]int32 {
	n := g.NumVertices()
	assigned := make([]bool, n)
	remaining := n
	var schedule [][]int32

	// Residual view: induce on unassigned vertices each round.
	current := graph.IdentitySub(g)
	for remaining > 0 {
		set := solve(current.G)
		var round []int32
		for lv, in := range set.In {
			if in {
				gv := current.ToGlobal[lv]
				round = append(round, gv)
				assigned[gv] = true
				remaining--
			}
		}
		schedule = append(schedule, round)
		member := make([]bool, n)
		for v := 0; v < n; v++ {
			member[v] = !assigned[v]
		}
		sub := graph.InducedSubgraph(g, member)
		current = sub
	}
	return schedule
}

// validateSchedule checks that every node transmits exactly once and that
// no round activates two interfering nodes.
func validateSchedule(g *graph.Graph, schedule [][]int32) error {
	seen := make([]int, g.NumVertices())
	for r, round := range schedule {
		inRound := map[int32]bool{}
		for _, v := range round {
			seen[v]++
			inRound[v] = true
		}
		for _, v := range round {
			for _, w := range g.Neighbors(v) {
				if inRound[w] {
					return fmt.Errorf("round %d activates interfering nodes %d and %d", r, v, w)
				}
			}
		}
	}
	for v, c := range seen {
		if c != 1 {
			return fmt.Errorf("node %d scheduled %d times", v, c)
		}
	}
	return nil
}
