// Package harness runs the paper's experiment grid and formats each table
// and figure of the evaluation as text. Every experiment id in DESIGN.md §4
// has a runner here; cmd/benchall exposes them on the command line and
// bench_test.go wraps them as testing.B benchmarks.
//
// Timing convention: CPU experiments report wall-clock (decomposition +
// solve), exactly what the paper's Figures 3–5 plot. GPU experiments report
// decomposition wall-clock, plus the solve phases' host work outside
// kernels, plus the virtual device's simulated time (kernel time +
// per-launch overhead) — see gpuTerms and internal/bsp.
package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Config controls an experiment run.
type Config struct {
	// Scale is the dataset scale factor (1.0 = default bench size).
	Scale float64
	// Seed drives dataset generation and the randomized algorithms.
	Seed uint64
	// Repeats is the number of timed runs per cell; the median is
	// reported. Minimum 1.
	Repeats int
	// Graphs restricts the instances (paper names); empty = all twelve.
	Graphs []string
	// Verify re-checks every solution (costs an extra O(m) pass per cell).
	Verify bool
	// Trace is the span the experiment records under: the grid's "cell"
	// spans and the runs of experiments that call solvers and
	// decompositions directly. nil leaves the experiment untraced.
	Trace *trace.Span
}

// withDefaults normalizes a Config.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Repeats < 1 {
		c.Repeats = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// specs resolves the instance list.
func (c Config) specs() []dataset.Spec {
	if len(c.Graphs) == 0 {
		return dataset.All()
	}
	var out []dataset.Spec
	for _, name := range c.Graphs {
		if s, ok := dataset.Get(name); ok {
			out = append(out, s)
		}
	}
	return out
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - utf8.RuneCountInString(cell); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown formats the table as a GitHub-flavored Markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n_%s_\n", n)
	}
	return b.String()
}

// CSV formats the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Cell is one measured grid point.
type Cell struct {
	Graph    string
	Strategy string
	Time     time.Duration
	Rounds   int
	// NumColors is set for coloring cells.
	NumColors int32
	// Decomp, Host and Sim are a GPU cell's Time split by gpuTerms;
	// zero on the CPU.
	Decomp, Host, Sim time.Duration
}

// gpuTerms splits a GPU run's time into the three terms it is charged:
// the host decomposition, the host work of the solve phases outside
// kernels (Solve − KernelTime: subgraph set-up, masks, filters, merges),
// and the simulated device time (kernels plus per-launch overhead). Every
// kernel launches inside a solve phase, so the sum covers the whole run
// once.
func gpuTerms(rep core.Report) (decomp, host, sim time.Duration) {
	return rep.Decomp, rep.Solve - rep.GPUStats.KernelTime, rep.GPUStats.SimTime
}

// strategyList is the grid column order: the paper's figures (baseline +
// its three decompositions) plus the MPX extension as a fifth column.
var strategyList = []core.Strategy{
	core.StrategyBaseline, core.StrategyBridge, core.StrategyRand, core.StrategyDegk,
	core.StrategyMPX,
}

// measure runs one (graph, problem, strategy, arch) cell Repeats times and
// returns the median-time cell.
func measure(cfg Config, g *graph.Graph, spec dataset.Spec, p core.Problem, s core.Strategy, arch core.Arch) Cell {
	opt := core.Options{Strategy: s, Arch: arch, Seed: cfg.Seed, DegK: 2}
	// MM's RAND takes the per-instance partition counts; the paper's
	// COLOR/MIS RAND experiments keep core's architecture defaults.
	if p == core.ProblemMM {
		opt.RandParts = spec.MMRandPartsCPU
		if arch == core.ArchGPU {
			opt.RandParts = spec.MMRandPartsGPU
		}
	}

	runs := make([]Cell, 0, cfg.Repeats)
	for r := 0; r < cfg.Repeats; r++ {
		sp := cfg.Trace.Beginf("cell %s/%s/%s/%s", spec.Name, p, s, arch)
		opt.Trace = sp
		start := time.Now()
		res, err := core.Solve(g, p, opt)
		wall := time.Since(start)
		if err != nil {
			sp.End()
			panic(fmt.Sprintf("harness: %s/%v/%v/%v: %v", spec.Name, p, s, arch, err))
		}
		sp.Add("rounds", int64(res.Report.Rounds))
		sp.Add("decomp_ns", int64(res.Report.Decomp))
		sp.Add("solve_ns", int64(res.Report.Solve))
		if arch == core.ArchGPU {
			sp.Add("sim_ns", int64(res.Report.GPUStats.SimTime))
		}
		sp.End()
		if cfg.Verify {
			if err := core.Verify(g, res); err != nil {
				panic(fmt.Sprintf("harness: verification failed on %s/%v/%v/%v: %v",
					spec.Name, p, s, arch, err))
			}
		}
		c := Cell{Graph: spec.Name, Strategy: res.Report.Strategy,
			Time: wall, Rounds: res.Report.Rounds}
		if arch == core.ArchGPU {
			c.Decomp, c.Host, c.Sim = gpuTerms(res.Report)
			c.Time = c.Decomp + c.Host + c.Sim
		}
		publishCell(p.String(), res.Report.Strategy, arch.String(),
			spec.Name, res.Report.Decomp, res.Report.Solve, c.Time)
		if res.Coloring != nil {
			c.NumColors = res.Coloring.NumColors()
		}
		runs = append(runs, c)
	}
	slices.SortFunc(runs, func(a, b Cell) int { return cmp.Compare(a.Time, b.Time) })
	return runs[len(runs)/2]
}

// Grid holds measured cells for one problem/arch over the instance list:
// Cells[graph][strategy column index].
type Grid struct {
	Problem core.Problem
	Arch    core.Arch
	Graphs  []string
	Cells   map[string][]Cell
}

// RunGrid measures baseline + the four decompositions for a problem on an
// architecture across the configured instances.
func RunGrid(cfg Config, p core.Problem, arch core.Arch) *Grid {
	cfg = cfg.withDefaults()
	grid := &Grid{Problem: p, Arch: arch, Cells: map[string][]Cell{}}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		row := make([]Cell, 0, len(strategyList))
		for _, s := range strategyList {
			row = append(row, measure(cfg, g, spec, p, s, arch))
		}
		grid.Graphs = append(grid.Graphs, spec.Name)
		grid.Cells[spec.Name] = row
	}
	return grid
}

// Speedup reports baselineTime / strategyTime for a strategy column
// (1 = baseline column 0).
func (g *Grid) Speedup(graphName string, col int) float64 {
	row := g.Cells[graphName]
	if row == nil || row[col].Time == 0 {
		return 0
	}
	return float64(row[0].Time) / float64(row[col].Time)
}

// AvgSpeedup averages Speedup over the grid's graphs, skipping any named in
// exclude — the paper's footnotes exclude outlier instances from the
// averages (rgg for MM, c-73/lp1 for GPU MIS).
func (g *Grid) AvgSpeedup(col int, exclude ...string) float64 {
	skip := map[string]bool{}
	for _, e := range exclude {
		skip[e] = true
	}
	var sum float64
	var n int
	for _, name := range g.Graphs {
		if skip[name] {
			continue
		}
		sum += g.Speedup(name, col)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fmtDur renders a duration compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// figure renders a grid as the paper's figures do: absolute times per
// strategy with the highlighted strategy's speedup "atop the bars", plus a
// log-scale text bar per row so the output reads like the published bar
// charts.
func figure(g *Grid, title string, highlightCol int, colNames []string) *Table {
	t := &Table{Title: title}
	t.Header = append([]string{"graph"}, colNames...)
	t.Header = append(t.Header, "speedup("+colNames[highlightCol]+")", "baseline vs "+colNames[highlightCol])
	// Scale bars against the grid's slowest cell.
	var maxT time.Duration
	for _, name := range g.Graphs {
		for c := range colNames {
			if d := g.Cells[name][c].Time; d > maxT {
				maxT = d
			}
		}
	}
	for _, name := range g.Graphs {
		row := []string{name}
		for c := range colNames {
			row = append(row, fmtDur(g.Cells[name][c].Time))
		}
		row = append(row, fmt.Sprintf("%.2fx", g.Speedup(name, highlightCol)))
		row = append(row, bar(g.Cells[name][colBaseline].Time, maxT)+" | "+
			bar(g.Cells[name][highlightCol].Time, maxT))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// bar renders a duration as a log-scaled text bar (1 char per ~factor of
// two below the maximum, up to 16).
func bar(d, max time.Duration) string {
	if d <= 0 || max <= 0 {
		return ""
	}
	const width = 16
	n := width
	for v := d; v < max && n > 1; v *= 2 {
		n--
	}
	return strings.Repeat("█", n)
}
