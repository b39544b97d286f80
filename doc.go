// Package repro is a Go reproduction of "A Study of Graph Decomposition
// Algorithms for Parallel Symmetry Breaking" (Nayyaroddeen, Gambhir,
// Kothapalli; IPPS 2017).
//
// The library implements the paper's three light-weight graph
// decompositions (BRIDGE, RAND, DEGk), the three symmetry-breaking problems
// they accelerate (maximal matching, vertex coloring, maximal independent
// set), the multicore and simulated-manycore baselines (GM, LMAX, VB, EB,
// LubyMIS), synthetic analogs of the paper's twelve datasets, and a harness
// that regenerates every table and figure of the evaluation.
//
// Layout:
//
//	internal/core       the public Solve API (problem × strategy × arch)
//	internal/decomp     BRIDGE / RAND / DEGk (paper §II) + MPX + multilevel (PMETIS stand-in)
//	internal/frontier   Ligra-style subsets, direction-optimizing EdgeMap, BFS forests
//	internal/matching   GM, LMAX, Israeli–Itai, MM-Bridge/Rand/Degk/Biconn (§III)
//	internal/coloring   VB, EB, Jones–Plassmann, COLOR-Bridge/Rand/Degk/Biconn (§IV)
//	internal/mis        LubyMIS, greedy, KP bounded-degree, MIS-Bridge/Rand/Deg2/Biconn (§V)
//	internal/graph      CSR graphs, subgraph extraction, statistics, I/O
//	internal/gen        synthetic generators for the six dataset classes
//	internal/dataset    the twelve Table II analogs
//	internal/par        goroutine parallel runtime (the "CPU")
//	internal/bsp        bulk-synchronous virtual manycore (the "GPU")
//	internal/biconn     biconnected components / articulation points
//	internal/bipartite  Hopcroft–Karp maximum matching (structural rank in examples/sparse_matrix)
//	internal/seq        sequential greedy references
//	internal/harness    experiment grid runner and table/figure formatters
//	internal/trace      phase/round span tracing (zero-cost when disabled) + Perfetto export
//	internal/telemetry  live metrics registry, runtime gauges, /metrics + pprof HTTP server
//	internal/serve      HTTP solve service: corpus, coalescing, solution cache, admission control
//	internal/benchfmt   go test -bench output parsing + regression compare
//	internal/lint       symlint analyzers: determinism / trace / runtime invariants
//	internal/cli        shared command-line plumbing
//	cmd/benchall        regenerate every table and figure
//	cmd/symbreak        solve one problem on one instance, or serve a corpus as a daemon
//	cmd/symload         load driver: hammer a symbreak daemon, report p50/p95/p99
//	cmd/decomp          run one decomposition
//	cmd/graphgen        write dataset instances to edge-list files
//	cmd/graphstat       Table II statistics
//	cmd/symlint         static-analysis driver (whole module as one program)
//	scripts/            bench2json.go (bench → JSON + regression gate), serve_smoke.sh
//	docs/               OPS.md (operator guide), API.md (HTTP solve API reference)
//	examples/           quickstart + four domain scenarios
//
// See DESIGN.md for the system inventory and per-experiment index,
// EXPERIMENTS.md for paper-vs-measured results, docs/OPS.md for running
// the solve daemon, and docs/API.md for its HTTP contract.
package repro
