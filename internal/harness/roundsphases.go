// RoundsPhases: the observability dogfood experiment — phase/round tables
// for the Table I winners, produced from the internal/trace span trees.

package harness

import (
	"fmt"
	"strings"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/trace"
)

// RoundsPhases measures, through the trace layer, how the paper's Table I
// winner for each problem spends its time and rounds: the decomposition's
// share of the end-to-end wall clock and the per-phase round counts that
// Report.Rounds only exposes as a total. This is the quantitative form of
// the paper's core claim — a cheap decomposition trades a few preprocessing
// milliseconds for a large cut in iteration count — and the round split per
// phase is the same quantity the MPC symmetry-breaking literature bounds
// analytically (Behnezhad et al., arXiv:1807.06701; Barenboim et al.,
// arXiv:1202.1983).
//
// Each cell records into its own collector, so the experiment works
// without benchall -trace and every snapshot is attributable to its cell;
// the cells do not appear in the experiment's -trace tree.
func RoundsPhases(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Rounds & phases: Table I winners under the trace layer",
		Header: []string{"graph", "problem", "arch", "strategy", "total", "decomp%", "rounds", "phase rounds"},
	}

	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		for _, p := range []core.Problem{core.ProblemMM, core.ProblemColor, core.ProblemMIS} {
			for _, arch := range []core.Arch{core.ArchCPU, core.ArchGPU} {
				col := trace.NewCollector()
				opt := core.Options{Strategy: core.StrategyAuto, Arch: arch, Seed: cfg.Seed, Trace: col.Root()}
				if arch == core.ArchGPU {
					opt.Machine = bsp.New()
				}
				res, err := core.Solve(g, p, opt)
				if err != nil {
					panic(fmt.Sprintf("harness: rounds-phases %s/%v/%v: %v", spec.Name, p, arch, err))
				}
				solveSpan := col.Snapshot().Children[0] // the "core .../..." span
				t.Rows = append(t.Rows, []string{
					spec.Name, p.String(), arch.String(), res.Report.Strategy,
					fmtDur(solveSpan.Dur()),
					fmt.Sprintf("%.1f", decompShare(solveSpan)*100),
					fmt.Sprintf("%d", res.Report.Rounds),
					phaseRounds(solveSpan),
				})
			}
		}
	}
	t.Notes = append(t.Notes,
		"decomp% is the decomposition phase's share of the traced end-to-end span",
		"phase rounds split the Report.Rounds total over the solve phases (trace counter \"rounds\")",
		"the per-phase round structure mirrors the MPC analyses of decomposition-based symmetry breaking (arXiv:1807.06701, arXiv:1202.1983)")
	return t
}

// decompShare is the fraction of a solver span's wall time spent in its
// decomposition child phases.
func decompShare(e trace.Export) float64 {
	if e.DurNs == 0 {
		return 0
	}
	var d int64
	for _, c := range e.Children {
		if c.Name == "decomp" {
			d += c.DurNs
		}
	}
	return float64(d) / float64(e.DurNs)
}

// phaseRounds renders the per-phase "rounds" counters of a solver span's
// solve children, e.g. "parts:3 cross:21".
func phaseRounds(e trace.Export) string {
	var parts []string
	for _, c := range e.Children {
		name, ok := strings.CutPrefix(c.Name, "solve/")
		if !ok {
			if c.Name != "solve" {
				continue
			}
			name = "solve"
		}
		parts = append(parts, fmt.Sprintf("%s:%d", name, c.Counter("rounds")))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
