// Experiments: runners for the paper's numbered tables and figures
// (Table I/II, Figures 2-5) plus the ablation grids over decomposition
// parameters (partition count, degree threshold, phase order).

package harness

import (
	"fmt"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis"
)

// Exclusions the paper's average speedups apply (footnotes 1 and 2).
var (
	mmAvgExcludes     = []string{"rgg-n-2-23-s0", "rgg-n-2-24-s0"}
	misGPUAvgExcludes = []string{"c-73", "lp1"}
)

// Grid strategy column indexes (see strategyList).
const (
	colBaseline = 0
	colBridge   = 1
	colRand     = 2
	colDegk     = 3
	colMPX      = 4
)

// Table2 reproduces Table II: the dataset statistics, measured on the
// synthetic analogs next to the paper's published values.
func Table2(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Table II: dataset statistics (measured analog | paper)",
		Header: []string{"graph", "|V|", "|E|", "%DEG2", "%BRIDGES", "avgdeg", "paper |V|", "paper |E|", "paper %DEG2", "paper %BRIDGES", "paper avgdeg"},
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		s := graph.ComputeStats(g, true)
		p := spec.Paper
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmt.Sprintf("%d", s.Vertices), fmt.Sprintf("%d", s.Edges),
			fmt.Sprintf("%.1f", s.PctDeg2), fmt.Sprintf("%.1f", s.PctBridges),
			fmt.Sprintf("%.1f", s.AvgDegree),
			fmt.Sprintf("%d", p.Vertices), fmt.Sprintf("%d", p.Edges),
			fmt.Sprintf("%.1f", p.PctDeg2), fmt.Sprintf("%.1f", p.PctBridges),
			fmt.Sprintf("%.1f", p.AvgDegree),
		})
	}
	t.Notes = append(t.Notes,
		"analogs are synthetic (offline build); |V|,|E| are scaled down, structural columns match Table II")
	return t
}

// Fig2 reproduces Figure 2: time per decomposition technique per graph
// (RAND with 10 subgraphs, DEGk with k=2). Each timed call is traced as
// a "decomp/<TECH>" span under cfg.Trace carrying the result's shape
// counters.
func Fig2(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Figure 2: decomposition time per technique",
		Header: []string{"graph", "BRIDGE", "RAND(10)", "DEG2", "MPX(0.2)", "BFS rounds"},
	}
	timed := func(tech decomp.Technique, run func() *decomp.Result) time.Duration {
		return timeRun(cfg, func() {
			sp := cfg.Trace.Beginf("decomp/%s", tech)
			run().Trace(sp)
			sp.End()
		})
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		var rounds int
		bridge := timed(decomp.TechBridge, func() *decomp.Result {
			r := decomp.Bridge(g)
			rounds = r.Rounds
			return r
		})
		rand := timed(decomp.TechRand, func() *decomp.Result { return decomp.Rand(g, 10, cfg.Seed) })
		degk := timed(decomp.TechDegk, func() *decomp.Result { return decomp.Degk(g, 2) })
		mpx := timed(decomp.TechMPX, func() *decomp.Result { return decomp.MPX(g, decomp.DefaultMPXBeta, cfg.Seed) })
		t.Rows = append(t.Rows, []string{
			spec.Name, fmtDur(bridge), fmtDur(rand), fmtDur(degk), fmtDur(mpx),
			fmt.Sprintf("%d", rounds),
		})
	}
	t.Notes = append(t.Notes,
		"expected shape: DEG2 fastest, RAND second, BRIDGE slowest (BFS-bound on large-diameter graphs)")
	return t
}

// colNames returns the figure column labels for a problem/arch.
func colNames(p core.Problem, arch core.Arch) []string {
	var base string
	switch p {
	case core.ProblemMM:
		if arch == core.ArchGPU {
			base = "LMAX"
		} else {
			base = "GM"
		}
	case core.ProblemColor:
		if arch == core.ArchGPU {
			base = "EB"
		} else {
			base = "VB"
		}
	default:
		base = "LubyMIS"
	}
	prefix := map[core.Problem]string{
		core.ProblemMM: "MM", core.ProblemColor: "COLOR", core.ProblemMIS: "MIS",
	}[p]
	return []string{base, prefix + "-Bridge", prefix + "-Rand", prefix + "-Degk", prefix + "-MPX"}
}

// Fig3 reproduces Figure 3 (a: CPU, b: GPU): absolute MM timings with the
// MM-Rand speedup atop the bars.
func Fig3(cfg Config, arch core.Arch) (*Table, *Grid) {
	grid := RunGrid(cfg, core.ProblemMM, arch)
	names := colNames(core.ProblemMM, arch)
	sub := "(a) CPU"
	if arch == core.ArchGPU {
		sub = "(b) GPU"
	}
	t := figure(grid, "Figure 3"+sub+": maximal matching", colRand, names)
	t.Notes = append(t.Notes, fmt.Sprintf(
		"avg MM-Rand speedup %.2fx excluding rgg instances (paper: %s)",
		grid.AvgSpeedup(colRand, mmAvgExcludes...),
		map[core.Arch]string{core.ArchCPU: "3.5x", core.ArchGPU: "2.53x"}[arch]))
	return t, grid
}

// Fig4 reproduces Figure 4 (a: CPU with COLOR-Degk speedups, b: GPU with
// COLOR-Rand speedups).
func Fig4(cfg Config, arch core.Arch) (*Table, *Grid) {
	grid := RunGrid(cfg, core.ProblemColor, arch)
	names := colNames(core.ProblemColor, arch)
	highlight := colDegk
	sub := "(a) CPU"
	paperAvg := "1.27x"
	if arch == core.ArchGPU {
		highlight = colRand
		sub = "(b) GPU"
		paperAvg = "1x"
	}
	t := figure(grid, "Figure 4"+sub+": vertex coloring", highlight, names)
	t.Notes = append(t.Notes, fmt.Sprintf("avg highlighted speedup %.2fx (paper: %s)",
		grid.AvgSpeedup(highlight), paperAvg))
	return t, grid
}

// Fig5 reproduces Figure 5 (a: CPU, b: GPU): MIS timings with MIS-Deg2
// speedups.
func Fig5(cfg Config, arch core.Arch) (*Table, *Grid) {
	grid := RunGrid(cfg, core.ProblemMIS, arch)
	names := colNames(core.ProblemMIS, arch)
	sub := "(a) CPU"
	var avg float64
	var paperAvg string
	if arch == core.ArchGPU {
		sub = "(b) GPU"
		avg = grid.AvgSpeedup(colDegk, misGPUAvgExcludes...)
		paperAvg = "2.16x (excl. c-73, lp1)"
	} else {
		avg = grid.AvgSpeedup(colDegk)
		paperAvg = "3.39x"
	}
	t := figure(grid, "Figure 5"+sub+": maximal independent set", colDegk, names)
	t.Notes = append(t.Notes, fmt.Sprintf("avg MIS-Deg2 speedup %.2fx (paper: %s)", avg, paperAvg))
	return t, grid
}

// Table1 reproduces Table I: the best decomposition and its average
// speedup per problem per architecture, derived from the six grids.
func Table1(cfg Config) *Table {
	t := &Table{
		Title:  "Table I: summary of results (best decomposition, avg speedup | paper)",
		Header: []string{"problem", "arch", "decomposition", "speedup", "paper"},
	}
	add := func(problem string, arch core.Arch, grid *Grid, col int, excl []string, paper string) {
		t.Rows = append(t.Rows, []string{
			problem, arch.String(), strategyList[col].String(),
			fmt.Sprintf("%.2fx", grid.AvgSpeedup(col, excl...)), paper,
		})
	}
	_, mmCPU := Fig3(cfg, core.ArchCPU)
	_, mmGPU := Fig3(cfg, core.ArchGPU)
	_, colCPU := Fig4(cfg, core.ArchCPU)
	_, colGPU := Fig4(cfg, core.ArchGPU)
	_, misCPU := Fig5(cfg, core.ArchCPU)
	_, misGPU := Fig5(cfg, core.ArchGPU)
	add("MM", core.ArchCPU, mmCPU, colRand, mmAvgExcludes, "RAND 3.5x")
	add("MM", core.ArchGPU, mmGPU, colRand, mmAvgExcludes, "RAND 2.53x")
	add("COLOR", core.ArchCPU, colCPU, colDegk, nil, "DEGk 1.27x")
	add("COLOR", core.ArchGPU, colGPU, colRand, nil, "RAND 1x")
	add("MIS", core.ArchCPU, misCPU, colDegk, nil, "DEGk 3.39x")
	add("MIS", core.ArchGPU, misGPU, colDegk, misGPUAvgExcludes, "DEGk 2.16x")
	// MPX rows: an extension beyond the paper (no published number).
	add("MM", core.ArchCPU, mmCPU, colMPX, mmAvgExcludes, "—")
	add("MM", core.ArchGPU, mmGPU, colMPX, mmAvgExcludes, "—")
	add("COLOR", core.ArchCPU, colCPU, colMPX, nil, "—")
	add("COLOR", core.ArchGPU, colGPU, colMPX, nil, "—")
	add("MIS", core.ArchCPU, misCPU, colMPX, nil, "—")
	add("MIS", core.ArchGPU, misGPU, colMPX, misGPUAvgExcludes, "—")
	t.Notes = append(t.Notes,
		"MPX (Miller–Peng–Xu ball growing) is an extension beyond the paper's three decompositions")
	return t
}

// ColorCounts reproduces the §IV-D color-overhead discussion: extra colors
// used by each decomposition strategy relative to the baseline, averaged
// over the instances, on both architectures.
func ColorCounts(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Color counts: extra colors vs baseline (avg %)",
		Header: []string{"arch", "COLOR-Bridge", "COLOR-Rand", "COLOR-Degk", "COLOR-MPX", "paper (Bridge/Rand/Degk)"},
	}
	for _, arch := range []core.Arch{core.ArchCPU, core.ArchGPU} {
		grid := RunGrid(cfg, core.ProblemColor, arch)
		var overhead [5]float64
		for _, name := range grid.Graphs {
			base := float64(grid.Cells[name][colBaseline].NumColors)
			for c := 1; c <= 4; c++ {
				overhead[c] += 100 * (float64(grid.Cells[name][c].NumColors) - base) / base
			}
		}
		n := float64(len(grid.Graphs))
		paper := "+0% / +3.9% / +3.0%"
		if arch == core.ArchGPU {
			paper = "+4.5% / +3.4% / +4.6%"
		}
		t.Rows = append(t.Rows, []string{
			arch.String(),
			fmt.Sprintf("%+.1f%%", overhead[colBridge]/n),
			fmt.Sprintf("%+.1f%%", overhead[colRand]/n),
			fmt.Sprintf("%+.1f%%", overhead[colDegk]/n),
			fmt.Sprintf("%+.1f%%", overhead[colMPX]/n),
			paper,
		})
	}
	return t
}

// AblationParts reproduces the partition-count sensitivity discussion
// (§III-D, §IV-D): MM-Rand and COLOR-Rand time as the RAND partition count
// grows. The paper observes slowdown with more partitions.
func AblationParts(cfg Config) *Table {
	cfg = cfg.withDefaults()
	parts := []int{2, 4, 10, 20, 50, 100}
	t := &Table{Title: "Ablation: RAND partition count sweep"}
	t.Header = []string{"graph", "problem"}
	for _, k := range parts {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		mmRow := []string{spec.Name, "MM-Rand"}
		colRow := []string{spec.Name, "COLOR-Rand"}
		for _, k := range parts {
			mm := timeRun(cfg, func() { matching.MMRand(g, k, cfg.Seed, matching.GMSolver(), cfg.Trace) })
			col := timeRun(cfg, func() { coloring.ColorRand(g, k, cfg.Seed, coloring.NewVB(), cfg.Trace) })
			mmRow = append(mmRow, fmtDur(mm))
			colRow = append(colRow, fmtDur(col))
		}
		t.Rows = append(t.Rows, mmRow, colRow)
	}
	t.Notes = append(t.Notes,
		"paper: MM-Rand slows as partitions sparsify the parts; COLOR-Rand slows as cross conflicts grow")
	return t
}

// AblationDegk sweeps the DEGk threshold for MM-Degk and COLOR-Degk —
// checking the paper's fixed choice of k = 2.
func AblationDegk(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ks := []int{1, 2, 3, 4, 8}
	t := &Table{Title: "Ablation: DEGk threshold sweep"}
	t.Header = []string{"graph", "problem"}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		mmRow := []string{spec.Name, "MM-Degk"}
		colRow := []string{spec.Name, "COLOR-Degk"}
		for _, k := range ks {
			mm := timeRun(cfg, func() { matching.MMDegk(g, k, matching.GMSolver(), cfg.Trace) })
			col := timeRun(cfg, func() { coloring.ColorDegk(g, k, coloring.NewVB(), cfg.Trace) })
			mmRow = append(mmRow, fmtDur(mm))
			colRow = append(colRow, fmtDur(col))
		}
		t.Rows = append(t.Rows, mmRow, colRow)
	}
	return t
}

// AblationOrder compares the MIS-Bridge / MIS-Rand order heuristic against
// both forced orders (§V-B1: "computing an MIS on the sparser of the
// graphs ... is beneficial in practice").
func AblationOrder(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Ablation: MIS phase-order heuristic",
		Header: []string{"graph", "algorithm", "auto", "parts-first", "cross-first"},
	}
	alg := mis.LubySolver(cfg.Seed)
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		bridgeCell := func(ord mis.Order) string {
			return fmtDur(timeRun(cfg, func() { mis.MISBridgeOrdered(g, alg, ord, cfg.Trace) }))
		}
		randCell := func(ord mis.Order) string {
			return fmtDur(timeRun(cfg, func() { mis.MISRandOrdered(g, 10, cfg.Seed, alg, ord, cfg.Trace) }))
		}
		t.Rows = append(t.Rows,
			[]string{spec.Name, "MIS-Bridge", bridgeCell(mis.OrderAuto), bridgeCell(mis.OrderPartsFirst), bridgeCell(mis.OrderCrossFirst)},
			[]string{spec.Name, "MIS-Rand", randCell(mis.OrderAuto), randCell(mis.OrderPartsFirst), randCell(mis.OrderCrossFirst)})
	}
	return t
}

// DecompStats reports, per instance, how the decompositions split the
// edges (intra-part vs cross) — the quantity that explains MM-Rand's
// sparsification and COLOR-Rand's conflicts — plus the structures each
// technique discovers (bridges; MPX balls).
func DecompStats(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:  "Decomposition edge split (intra-part edges / cross edges)",
		Header: []string{"graph", "BRIDGE", "RAND(10)", "DEG2", "MPX(0.2)", "bridges", "balls"},
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		br := decomp.Bridge(g)
		rd := decomp.Rand(g, 10, cfg.Seed)
		dk := decomp.Degk(g, 2)
		mx := decomp.MPX(g, decomp.DefaultMPXBeta, cfg.Seed)
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmt.Sprintf("%d/%d", br.PartEdges(), br.CrossEdges()),
			fmt.Sprintf("%d/%d", rd.PartEdges(), rd.CrossEdges()),
			fmt.Sprintf("%d/%d", dk.PartEdges(), dk.CrossEdges()),
			fmt.Sprintf("%d/%d", mx.PartEdges(), mx.CrossEdges()),
			fmt.Sprintf("%d", len(br.Bridges)),
			fmt.Sprintf("%d", mx.Balls),
		})
	}
	return t
}
