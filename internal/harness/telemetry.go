package harness

import (
	"time"

	"repro/internal/telemetry"
)

// Live telemetry published by measure, recorded once
// telemetry.Enable(true) — the -serve wiring of cmd/benchall. Every timed
// repetition of every cell lands one observation per histogram, keyed by
// the full grid coordinate, so a scrape during a long run shows the
// latency distribution per {problem, algo, arch, graph} exactly as the
// paper's figures slice it.
var (
	cellDecompSeconds = telemetry.Default.HistogramVec(
		"symbreak_decomp_seconds",
		"Decomposition-phase latency per measured cell.",
		nil, "problem", "algo", "arch", "graph")
	cellSolveSeconds = telemetry.Default.HistogramVec(
		"symbreak_solve_seconds",
		"Solve-phase latency per measured cell.",
		nil, "problem", "algo", "arch", "graph")
	cellTotalSeconds = telemetry.Default.HistogramVec(
		"symbreak_cell_seconds",
		"Reported cell time (wall on CPU; decomp + host solve work outside kernels + simulated device time on GPU).",
		nil, "problem", "algo", "arch", "graph")
	cellsTotal = telemetry.Default.CounterVec(
		"symbreak_cells_total",
		"Measured cell repetitions completed.",
		"problem", "algo", "arch", "graph")
)

// publishCell records one timed repetition. algo is the concrete
// algorithm name from the report (MM-Rand, VB, ...), not the strategy id,
// matching the tables' row labels.
func publishCell(problem, algo, arch, graphName string, decomp, solve, total time.Duration) {
	cellDecompSeconds.With(problem, algo, arch, graphName).Observe(decomp.Seconds())
	cellSolveSeconds.With(problem, algo, arch, graphName).Observe(solve.Seconds())
	cellTotalSeconds.With(problem, algo, arch, graphName).Observe(total.Seconds())
	cellsTotal.With(problem, algo, arch, graphName).Inc()
}
