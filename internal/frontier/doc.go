// Package frontier is the repository's Ligra-style traversal engine: a
// VertexSubset with sparse (sorted vertex list) and dense (par.Bitset)
// representations that convert into each other on demand, and a
// direction-optimizing EdgeMap that switches between top-down push and
// bottom-up pull per round using the Beamer heuristic. BFS (plain and
// hybrid), the BFS inside the BRIDGE decomposition, the MPX ball-growing
// decomposition, and the active-set loops of the MIS solvers all run on
// this engine instead of hand-rolled frontier loops.
//
// # Core types
//
// Subset is Ligra's vertexSubset: a set of vertices over [0, n) that
// lazily maintains a sorted vertex list and/or a bitset, materializing
// each representation at most once, on first use. EdgeMap applies a
// relaxation function over the out-edges of a subset and returns the
// subset of updated vertices; Engine carries the direction-switch
// divisor per traversal (PullDiv: pull while frontier > n/div; zero
// means DefaultPullDiv).
//
// # Determinism contract
//
// A Subset's member set and its Vertices() order (ascending vertex id)
// are identical under any worker count. EdgeMap guarantees the same for
// the subset it returns — push output is merged from per-chunk buffers
// and sorted into vertex order, pull output is produced in vertex order
// by construction — so algorithms whose per-round state depends only on
// frontier membership are bit-identical across worker counts. All
// fan-out goes through internal/par; the package spawns no goroutines of
// its own.
package frontier
