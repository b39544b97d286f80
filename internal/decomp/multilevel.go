package decomp

import (
	"repro/internal/graph"
	"repro/internal/multilevel"
)

// TechMultilevel identifies the matching-based multilevel partitioner
// (the PMETIS stand-in; see package multilevel).
const TechMultilevel Technique = 100

// Multilevel decomposes g with the multilevel k-way partitioner and
// materializes the parts and cross subgraph in the RAND shape. The paper's
// Remark 1 excludes METIS-style partitioning because it alone costs more
// than the symmetry-breaking baselines — the harness's remark1 experiment
// measures exactly that with this decomposition.
func Multilevel(g *graph.Graph, k int, seed uint64) *Result {
	r := &Result{Technique: TechMultilevel}
	label, st := multilevel.Partition(g, k, seed, multilevel.Options{})
	r.Parts, r.Cross = graph.PartitionByLabel(g, label, k)
	r.Label = label
	r.Rounds = st.Levels
	return r
}
