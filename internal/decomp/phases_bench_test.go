package decomp

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/par"
)

// paperGridInstances are the Table II analogs the paper-grid benchmark
// solves, one per graph class.
var paperGridInstances = []string{
	"lp1", "coAuthorsCiteseer", "germany-osm", "kron-g500-logn20", "rgg-n-2-23-s0", "webbase-1M",
}

// BenchmarkDecompPhases times the sub-phases of the BRIDGE and MPX
// decompositions on each paper-grid instance at scale 1.0 (seed 1), one
// sub-benchmark per instance and phase:
//
//   - components: graph.ConnectedComponents;
//   - bfs-forest: Step 1 of Algorithm 1, with its union pass;
//   - lca-climb: Step 2 of Algorithm 1 alone, on a prebuilt forest;
//   - find-bridges: Steps 1 and 2, as BRIDGE runs them;
//   - bridge-split: G − B and the bridges' Sub from graph.SplitEdges;
//   - mpx-grow: the whole MPX ball growing;
//   - mpx-order: its start-round order alone;
//   - mpx-split: the balls' union and the inter-ball Sub.
//
// `make bench-decomp` runs it; building the six instances takes a few
// seconds of the run.
func BenchmarkDecompPhases(b *testing.B) {
	for _, name := range paperGridInstances {
		spec, ok := dataset.Get(name)
		if !ok {
			b.Fatalf("no dataset %s", name)
		}
		g := dataset.Load(spec, 1.0, 1)
		tree := (&frontier.Engine{}).BFSForest(g)
		bi := FindBridges(g, nil)
		info := MPXGrow(g, DefaultMPXBeta, 1, nil)
		start := make([]int32, g.NumVertices())
		par.For(len(start), func(i int) { start[i] = int32(info.MaxDelta - info.Delta[i]) })
		phases := []struct {
			name string
			run  func()
		}{
			{"components", func() { graph.ConnectedComponents(g) }},
			{"bfs-forest", func() { (&frontier.Engine{}).BFSForest(g) }},
			{"lca-climb", func() { coverCycles(g, tree) }},
			{"find-bridges", func() { FindBridges(g, nil) }},
			{"bridge-split", func() {
				graph.SplitEdges(g, func(a, c int32) bool { return !bi.IsBridge(a, c) })
			}},
			{"mpx-grow", func() { MPXGrow(g, DefaultMPXBeta, 1, nil) }},
			{"mpx-order", func() { par.OrderByKey(start) }},
			{"mpx-split", func() {
				graph.SplitEdges(g, func(a, c int32) bool { return info.Center[a] == info.Center[c] })
			}},
		}
		for _, ph := range phases {
			b.Run(name+"/"+ph.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ph.run()
				}
			})
		}
	}
}
