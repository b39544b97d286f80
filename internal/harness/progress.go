// MMProgress and BFSAblation: per-round progress curves for the matching
// algorithms (the "vain tendency" plot) and BFS implementation ablation.

package harness

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
)

// MMProgress reproduces the paper's §III-C progress observation on the rgg
// instances: "Algorithm MM-Rand ... is seen to match about 70% of vertices
// in the induced subgraphs within 17 iterations and the remaining matches
// are found in another 400 iterations approximately. Algorithm GM requires
// on the order of 14,000 iterations." It runs GM on the full graph and on
// the RAND-decomposed G_IS, and reports the rounds needed to reach fixed
// fractions of the final matching.
func MMProgress(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "MM progress curves: rounds to reach a fraction of the final matching",
		Header: []string{"graph", "algorithm", "50%", "70%", "90%", "100%",
			"final matched"},
	}
	milestones := []float64{0.5, 0.7, 0.9, 1.0}
	addRow := func(name, alg string, st matching.Stats) {
		row := []string{name, alg}
		final := st.Matched
		for _, frac := range milestones {
			target := int64(frac * float64(final))
			round := len(st.PerRound)
			for r, c := range st.PerRound {
				if c >= target {
					round = r + 1
					break
				}
			}
			row = append(row, fmt.Sprintf("%d", round))
		}
		row = append(row, fmt.Sprintf("%d", final))
		t.Rows = append(t.Rows, row)
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		_, gmStats := matching.GM(g)
		addRow(spec.Name, "GM", gmStats)
		// The first MM-Rand phase: GM on G_IS (intra-part edges only).
		k := spec.MMRandPartsCPU
		label := make([]int32, g.NumVertices())
		for i := range label {
			label[i] = int32(par.HashRange(cfg.Seed, int64(i), k))
		}
		gis := graph.RemoveEdges(g, func(u, v int32) bool { return label[u] == label[v] })
		_, randStats := matching.GM(gis)
		addRow(spec.Name, fmt.Sprintf("MM-Rand/G_IS(k=%d)", k), randStats)
	}
	t.Notes = append(t.Notes,
		"paper (rgg): GM ≈ 14,000 iterations; MM-Rand ≈ 70% within 17 iterations, rest in ~400")
	return t
}

// RelabelAblation isolates the vertex-ordering effect behind GM's vain
// tendency: it compares GM and MM-Rand on each instance as generated
// (structure-correlated ids) and after a random relabeling. The paper's
// pathological instances (rgg, banded) lose their pathology under
// relabeling, confirming the ordering — not the topology alone — drives
// the effect.
func RelabelAblation(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Ablation: vertex-ordering effect on GM (rounds, original vs random ids)",
		Header: []string{"graph", "GM rounds (orig)", "GM rounds (relabeled)",
			"MM-Rand rounds (orig)", "MM-Rand rounds (relabeled)"},
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		shuffled := graph.RelabelRandom(g, cfg.Seed+77)
		_, gmOrig := matching.GM(g)
		_, gmShuf := matching.GM(shuffled)
		_, randOrig := matching.MMRand(g, spec.MMRandPartsCPU, cfg.Seed, matching.GMSolver(), cfg.Trace)
		_, randShuf := matching.MMRand(shuffled, spec.MMRandPartsCPU, cfg.Seed, matching.GMSolver(), cfg.Trace)
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmt.Sprintf("%d", gmOrig.Rounds), fmt.Sprintf("%d", gmShuf.Rounds),
			fmt.Sprintf("%d", randOrig.Rounds), fmt.Sprintf("%d", randShuf.Rounds),
		})
	}
	return t
}

// BFSAblation measures the direction-optimizing BFS extension against the
// plain level-synchronous BFS that the paper's BRIDGE decomposition uses.
// Expected shape: large wins on small-diameter instances (kron, web) where
// the frontier quickly covers the graph, parity on large-diameter road
// networks where bottom-up never pays.
func BFSAblation(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Ablation: plain vs direction-optimizing BFS (BRIDGE's Step 1)",
		Header: []string{"graph", "plain", "hybrid", "speedup", "depth"},
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		var depth int
		plain := timeRun(cfg, func() {
			depth = (&frontier.Engine{PullDiv: frontier.NoPull}).BFSForest(g).Depth
		})
		hybrid := timeRun(cfg, func() { new(frontier.Engine).BFSForest(g) })
		t.Rows = append(t.Rows, []string{
			spec.Name, fmtDur(plain), fmtDur(hybrid),
			fmt.Sprintf("%.2fx", float64(plain)/float64(hybrid)),
			fmt.Sprintf("%d", depth),
		})
	}
	return t
}
