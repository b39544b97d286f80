// Register allocation by interference-graph coloring — one of the
// scheduling applications the paper's introduction motivates for COLOR.
//
// The example builds a synthetic straight-line program of virtual
// registers with random live ranges, forms the interference graph (two
// virtuals interfere when their live ranges overlap), colors it with
// COLOR-Degk, and reports how many machine registers the allocation needs
// versus the baseline VB coloring.
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/par"
)

// liveRange is a virtual register alive on [start, end).
type liveRange struct {
	start, end int32
}

func main() {
	const (
		numVirtuals = 40000
		programLen  = 400000
		maxLive     = 24 // max live-range length
	)
	rng := par.NewRNG(7)

	// Random live ranges; most are short (locals), a few span far
	// (loop-carried values), which produces the low-degree fringe that
	// COLOR-Degk exploits.
	ranges := make([]liveRange, numVirtuals)
	for i := range ranges {
		start := int32(rng.Intn(programLen))
		length := int32(1 + rng.Intn(maxLive))
		if rng.Intn(10) == 0 {
			length *= 8 // occasional long-lived value
		}
		ranges[i] = liveRange{start, start + length}
	}

	g := interferenceGraph(ranges)
	fmt.Printf("interference graph: %d virtuals, %d interferences, avg degree %.1f, %d deg≤2\n",
		g.NumVertices(), g.NumEdges(), g.AvgDegree(),
		par.Count(g.NumVertices(), func(i int) bool { return g.Degree(int32(i)) <= 2 }))

	// Baseline VB vs COLOR-Degk (the paper's CPU winner).
	eng := coloring.NewVB()
	base, baseStats := eng.Fresh(g)
	if err := coloring.Verify(g, base); err != nil {
		log.Fatal(err)
	}
	dec, rep := coloring.ColorDegk(g, 2, eng, nil)
	if err := coloring.Verify(g, dec); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("VB baseline:  %3d registers, %d rounds\n", base.NumColors(), baseStats.Rounds)
	fmt.Printf("COLOR-Degk:   %3d registers, %d rounds, decomp %v + solve %v\n",
		dec.NumColors(), rep.Rounds, rep.Decomp, rep.Solve)

	// An allocation is usable iff no two interfering virtuals share a
	// register; Verify proved that. Show a few assignments.
	fmt.Println("\nsample allocation:")
	for v := int32(0); v < 5; v++ {
		fmt.Printf("  v%-5d live [%d,%d) → r%d\n", v, ranges[v].start, ranges[v].end, dec.Color[v])
	}
}

// interferenceGraph builds the overlap graph of the live ranges with an
// endpoint sweep: sort endpoints, keep the active set, connect each newly
// opened range to everything currently live.
func interferenceGraph(ranges []liveRange) *graph.Graph {
	type event struct {
		at    int32
		open  bool
		which int32
	}
	events := make([]event, 0, 2*len(ranges))
	for i, r := range ranges {
		events = append(events,
			event{r.start, true, int32(i)}, event{r.end, false, int32(i)})
	}
	// Closes sort before opens at equal positions, so touching ranges do
	// not interfere.
	slices.SortFunc(events, func(a, b event) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		switch {
		case !a.open && b.open:
			return -1
		case a.open && !b.open:
			return 1
		default:
			return 0
		}
	})
	b := graph.NewBuilder(len(ranges))
	active := map[int32]bool{}
	for _, e := range events {
		if !e.open {
			delete(active, e.which)
			continue
		}
		for other := range active {
			b.AddEdge(e.which, other)
		}
		active[e.which] = true
	}
	return b.Build()
}
