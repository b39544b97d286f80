// Package decomp implements the graph decompositions that front every
// symmetry-breaking solver in this repository: the paper's three
// light-weight techniques (Section II) plus two extensions.
//
//   - BRIDGE (Algorithm 1): finds all bridges with a parallel BFS forest
//     plus LCA-walk marking and splits off the 2-edge-connected
//     components.
//   - RAND (Algorithm 2): partitions vertices uniformly at random into k
//     parts.
//   - DEGk (Algorithm 3): splits by a degree threshold into a bounded-
//     degree subgraph and a remainder.
//   - MPX (extension): Miller–Peng–Xu ball growing — exponentially
//     shifted start times with rate beta, grown as a multi-source BFS on
//     the frontier engine; produces low-diameter balls with provably few
//     cut edges in expectation.
//   - MULTILEVEL (extension): a matching-based multilevel k-way
//     partitioner, the PMETIS stand-in for the paper's Remark 1
//     experiment, which excludes real PMETIS because partitioning alone
//     costs more than the symmetry-breaking baselines.
//
// Every decomposition returns a Result: materialized subgraphs with
// local→global vertex maps, the technique-specific extras (bridge list,
// vertex labels, MPX ball assignment) and a round count. Callers time the
// call themselves; that wall time is what Figure 2 of the paper reports.
// All decompositions are deterministic under a seed for any worker count;
// randomness comes from par.Hash64 splittable hashing, never from shared
// mutable state.
package decomp
