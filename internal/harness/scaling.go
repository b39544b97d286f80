// Scaling: strong-scaling runs of the Table I winners across worker
// counts, reported as speedup over the single-worker run.

package harness

import (
	"fmt"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/par"
)

// Scaling sweeps the worker count for the baseline solvers — the standard
// strong-scaling check for a parallel-algorithms repository. (The paper
// fixes 80 threads on its 20-core testbed and never varies them; this
// experiment is an extension. On a single-core host every column is
// equal by construction.)
//
// Runtime counters are collected across the sweep: the note under the
// table reports how many loop dispatches the persistent pool served, how
// many chunks its workers picked up off the submitting goroutine
// (steals), and how many goroutine launches a spawn-per-call runtime
// would have paid for the same work.
func Scaling(cfg Config) *Table {
	cfg = cfg.withDefaults()
	counts := []int{1, 2, 4, 8}
	maxW := runtime.GOMAXPROCS(0)
	t := &Table{Title: fmt.Sprintf("Scaling: baseline solve time vs workers (host has %d)", maxW)}
	t.Header = []string{"graph", "algorithm"}
	for _, w := range counts {
		t.Header = append(t.Header, fmt.Sprintf("w=%d", w))
	}
	defer par.SetWorkers(0)
	statsWereOn := par.StatsEnabled()
	par.EnableStats(true)
	par.ResetStats()
	defer par.EnableStats(statsWereOn)
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		gmRow := []string{spec.Name, "GM"}
		lubyRow := []string{spec.Name, "LubyMIS"}
		for _, w := range counts {
			par.SetWorkers(w)
			gmRow = append(gmRow, fmtDur(timeRun(cfg, func() { matching.GM(g) })))
			lubyRow = append(lubyRow, fmtDur(timeRun(cfg, func() { mis.Luby(g, cfg.Seed) })))
		}
		t.Rows = append(t.Rows, gmRow, lubyRow)
	}
	t.Notes = append(t.Notes, RuntimeStatsNote())
	return t
}

// RuntimeStatsNote renders the current par runtime counters as one table
// note line.
func RuntimeStatsNote() string {
	st := par.SnapshotStats()
	return fmt.Sprintf(
		"par runtime: %d pooled dispatches, %d inline loops, %d chunks (%d stolen by pool workers)",
		st.Tasks, st.SeqLoops, st.Chunks, st.Steals)
}
