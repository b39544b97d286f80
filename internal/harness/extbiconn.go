// ExtBiconn: the beyond-the-paper extension comparing bridge-based
// decomposition against full biconnected-component decomposition.

package harness

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/matching"
	"repro/internal/mis"
)

// ExtBiconn measures the Hochbaum-style biconnected-component decomposition
// (this reproduction's extension; the paper's related work motivates it but
// never measures it) against each problem's baseline and the paper's
// Table I winner.
func ExtBiconn(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Extension: BICONN decomposition vs baseline vs Table I winner (CPU)",
		Header: []string{"graph", "problem", "baseline", "BICONN", "Table-I winner"},
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		mm := func() []string {
			base := timeRun(cfg, func() { matching.GM(g) })
			bic := timeRun(cfg, func() { matching.MMBiconn(g, matching.GMSolver(), cfg.Trace) })
			win := timeRun(cfg, func() {
				matching.MMRand(g, spec.MMRandPartsCPU, cfg.Seed, matching.GMSolver(), cfg.Trace)
			})
			return []string{spec.Name, "MM", fmtDur(base), fmtDur(bic), fmtDur(win)}
		}
		col := func() []string {
			eng := coloring.NewVB()
			base := timeRun(cfg, func() { eng.Fresh(g) })
			bic := timeRun(cfg, func() { coloring.ColorBiconn(g, eng, cfg.Trace) })
			win := timeRun(cfg, func() { coloring.ColorDegk(g, 2, eng, cfg.Trace) })
			return []string{spec.Name, "COLOR", fmtDur(base), fmtDur(bic), fmtDur(win)}
		}
		ms := func() []string {
			base := timeRun(cfg, func() { mis.Luby(g, cfg.Seed) })
			bic := timeRun(cfg, func() { mis.MISBiconn(g, mis.LubySolver(cfg.Seed), cfg.Trace) })
			win := timeRun(cfg, func() { mis.MISDeg2(g, mis.LubySolver(cfg.Seed), cfg.Trace) })
			return []string{spec.Name, "MIS", fmtDur(base), fmtDur(bic), fmtDur(win)}
		}
		t.Rows = append(t.Rows, mm(), col(), ms())
	}
	t.Notes = append(t.Notes,
		"BICONN pays a BFS + union-find decomposition (like BRIDGE); expect it competitive only where articulation points are plentiful")
	return t
}

// Remark1 reproduces the paper's Remark 1: "the current best practical
// implementations [of MM/COLOR/MIS] in most cases finish faster than the
// time it takes to decompose the graph using PMETIS. For this reason, we
// exclude PMETIS from our study." The multilevel partitioner stands in for
// PMETIS; the row compares its partitioning time alone against each
// baseline's full solve.
func Remark1(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Remark 1: multilevel (METIS stand-in) partition time vs baseline solves",
		Header: []string{"graph", "multilevel(k=10)", "GM (MM)", "VB (COLOR)", "LubyMIS", "cut/cross vs RAND"},
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		var ml *decomp.Result
		mlTime := timeRun(cfg, func() { ml = decomp.Multilevel(g, 10, cfg.Seed) })
		gm := timeRun(cfg, func() { matching.GM(g) })
		vb := timeRun(cfg, func() { coloring.NewVB().Fresh(g) })
		luby := timeRun(cfg, func() { mis.Luby(g, cfg.Seed) })
		rnd := decomp.Rand(g, 10, cfg.Seed)
		t.Rows = append(t.Rows, []string{
			spec.Name, fmtDur(mlTime), fmtDur(gm), fmtDur(vb), fmtDur(luby),
			fmt.Sprintf("%d vs %d", ml.CrossEdges(), rnd.CrossEdges()),
		})
	}
	t.Notes = append(t.Notes,
		"Remark 1 holds when the multilevel column exceeds the solver columns; its far smaller cut shows what the quality buys")
	return t
}
