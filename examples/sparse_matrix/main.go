// Sparse-matrix row–column matching — the scientific-computing application
// the paper motivates MM with (Vastenhouw & Bisseling, 2D data distribution
// for parallel sparse matrix–vector multiplication).
//
// The example builds a random rectangular sparse matrix pattern, forms the
// row–column bipartite graph, and compares:
//
//   - the *maximum* matching (Hopcroft–Karp) — the matrix's structural
//     rank, the gold standard a direct solver wants for a zero-free
//     diagonal, and
//   - the *maximal* matchings the paper's parallel algorithms produce (GM
//     baseline and MM-Rand), which trade optimality for parallel speed and
//     are guaranteed to reach at least half the structural rank.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
)

func main() {
	const (
		rows = 60000
		cols = 50000
		nnz  = 400000
	)
	// Random pattern with a skewed column distribution (a few dense
	// columns, like constraint matrices have).
	rng := par.NewRNG(17)
	b := graph.NewBuilder(rows + cols)
	for i := 0; i < nnz; i++ {
		r := rng.Intn(rows)
		c := rng.Intn(cols)
		if rng.Intn(4) == 0 {
			c = rng.Intn(cols / 50) // dense column block
		}
		b.AddEdge(int32(r), int32(rows+c))
	}
	g := b.Build()
	side := make([]bool, rows+cols)
	for c := 0; c < cols; c++ {
		side[rows+c] = true
	}
	fmt.Printf("matrix pattern: %d×%d, %d structural nonzeros\n\n", rows, cols, g.NumEdges())

	// Exact structural rank.
	start := time.Now()
	opt, err := bipartite.MaxMatching(g, side)
	if err != nil {
		log.Fatal(err)
	}
	rank := opt.Cardinality()
	fmt.Printf("Hopcroft–Karp:  structural rank %d   (%v, exact)\n", rank, time.Since(start).Round(time.Millisecond))

	// Parallel maximal matchings.
	start = time.Now()
	gm, gmStats := matching.GM(g)
	fmt.Printf("GM:             %d matched (%.1f%% of rank), %d rounds, %v\n",
		gm.Cardinality(), 100*float64(gm.Cardinality())/float64(rank), gmStats.Rounds,
		time.Since(start).Round(time.Millisecond))

	start = time.Now()
	mr, rep := matching.MMRand(g, 10, 3, matching.GMSolver(), nil)
	fmt.Printf("MM-Rand:        %d matched (%.1f%% of rank), %d rounds, %v\n",
		mr.Cardinality(), 100*float64(mr.Cardinality())/float64(rank), rep.Rounds,
		rep.Total().Round(time.Millisecond))

	// The guarantee every maximal matching carries.
	for name, m := range map[string]*matching.Matching{"GM": gm, "MM-Rand": mr} {
		if err := matching.Verify(g, m); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if 2*m.Cardinality() < rank {
			log.Fatalf("%s: below the 1/2-approximation bound", name)
		}
	}
	fmt.Println("\nboth maximal matchings verified: maximal, and ≥ ½ · structural rank")
}
