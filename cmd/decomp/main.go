// Command decomp runs one graph decomposition on a dataset instance (or a
// graph file) and prints the subgraph inventory and timing — one cell of
// the paper's Figure 2.
//
// Usage:
//
//	decomp -technique bridge lp1
//	decomp -technique rand -parts 10 germany-osm
//	decomp -technique mpx -beta 0.2 coAuthorsCiteseer
//	decomp -technique degk -k 2 -file graph.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/decomp"
)

func main() {
	technique := flag.String("technique", "degk", "bridge, rand, degk, mpx, or multilevel")
	parts := flag.Int("parts", 10, "RAND/MULTILEVEL partition count")
	k := flag.Int("k", 2, "DEGk threshold")
	beta := flag.Float64("beta", decomp.DefaultMPXBeta, "MPX ball-growing rate")
	seed := flag.Uint64("seed", 1, "seed")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	file := flag.String("file", "", "read a graph from a file (edge list, or METIS for .graph/.metis)")
	flag.Parse()

	g, err := cli.LoadGraph(*file, flag.Args(), *scale, *seed)
	if err != nil {
		fatal(err)
	}

	tech, err := decomp.ParseTechnique(*technique)
	if err != nil {
		fatal(err)
	}
	// The decompositions panic on these values; reject them as input.
	switch {
	case (tech == decomp.TechRand || tech == decomp.TechMultilevel) && *parts < 1:
		fatal(fmt.Errorf("-parts must be ≥ 1, got %d", *parts))
	case tech == decomp.TechDegk && *k < 0:
		fatal(fmt.Errorf("-k must be ≥ 0, got %d", *k))
	}
	if tech == decomp.TechMPX {
		if err := decomp.CheckMPXBeta(*beta); err != nil {
			fatal(fmt.Errorf("-beta: %w", err))
		}
	}
	var r *decomp.Result
	start := time.Now()
	switch tech {
	case decomp.TechBridge:
		r = decomp.Bridge(g)
	case decomp.TechRand:
		r = decomp.Rand(g, *parts, *seed)
	case decomp.TechDegk:
		r = decomp.Degk(g, *k)
	case decomp.TechMPX:
		r = decomp.MPX(g, *beta, *seed)
	case decomp.TechMultilevel:
		r = decomp.Multilevel(g, *parts, *seed)
	default:
		fatal(fmt.Errorf("technique %v not runnable here", tech))
	}
	elapsed := time.Since(start)

	fmt.Printf("technique:   %v\n", r.Technique)
	fmt.Printf("graph:       |V|=%d |E|=%d\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("parts:       %d (holding %d edges)\n", len(r.Parts), r.PartEdges())
	for i, p := range r.Parts {
		if len(r.Parts) <= 8 {
			fmt.Printf("  part %d:    |V|=%d |E|=%d\n", i, p.NumVertices(), p.NumEdges())
		}
	}
	fmt.Printf("cross:       |V|=%d |E|=%d\n", r.Cross.NumVertices(), r.Cross.NumEdges())
	if r.Technique == decomp.TechBridge {
		fmt.Printf("bridges:     %d (%.2f%% of edges)\n", len(r.Bridges),
			100*float64(len(r.Bridges))/float64(g.NumEdges()))
	}
	if r.Technique == decomp.TechMPX {
		fmt.Printf("balls:       %d (%.2f%% of edges cross)\n", r.Balls,
			100*float64(r.CrossEdges())/float64(g.NumEdges()))
	}
	fmt.Printf("rounds:      %d\n", r.Rounds)
	fmt.Printf("elapsed:     %v\n", elapsed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "decomp:", err)
	os.Exit(1)
}
