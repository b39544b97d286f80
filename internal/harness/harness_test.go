package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/trace"
)

// tiny restricts experiments to three representative instances at a very
// small scale so the full harness logic runs in test time.
func tiny() Config {
	return Config{
		Scale:   0.03,
		Seed:    1,
		Repeats: 1,
		Graphs:  []string{"lp1", "rgg-n-2-23-s0", "webbase-1M"},
		Verify:  true,
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1.0 || c.Repeats != 1 || c.Seed != 1 {
		t.Fatalf("defaults = %+v", c)
	}
	if got := (Config{}).specs(); len(got) != 12 {
		t.Fatalf("default specs = %d", len(got))
	}
	if got := tiny().specs(); len(got) != 3 {
		t.Fatalf("restricted specs = %d", len(got))
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:  []string{"note here"},
	}
	out := tb.Render()
	for _, want := range []string{"== demo ==", "longer", "note: note here"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") || !strings.Contains(csv, "longer,2") {
		t.Fatalf("CSV wrong:\n%s", csv)
	}
}

func TestRunGridShapeAndSpeedups(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	grid := RunGrid(cfg, core.ProblemMIS, core.ArchCPU)
	if len(grid.Graphs) != 3 {
		t.Fatalf("grid has %d graphs", len(grid.Graphs))
	}
	for _, name := range grid.Graphs {
		row := grid.Cells[name]
		if len(row) != 5 {
			t.Fatalf("%s: %d cells", name, len(row))
		}
		for _, c := range row {
			if c.Time <= 0 {
				t.Fatalf("%s/%s: zero time", name, c.Strategy)
			}
		}
		if s := grid.Speedup(name, colDegk); s <= 0 {
			t.Fatalf("%s: speedup %f", name, s)
		}
		if s := grid.Speedup(name, colMPX); s <= 0 {
			t.Fatalf("%s: MPX speedup %f", name, s)
		}
	}
	// Baseline column speedup is identically 1.
	for _, name := range grid.Graphs {
		if s := grid.Speedup(name, colBaseline); s != 1 {
			t.Fatalf("baseline speedup %f", s)
		}
	}
	// AvgSpeedup with everything excluded is 0.
	if grid.AvgSpeedup(colDegk, grid.Graphs...) != 0 {
		t.Fatal("fully-excluded AvgSpeedup not 0")
	}
}

func TestTable2Runs(t *testing.T) {
	defer dataset.ClearCache()
	tb := Table2(tiny())
	if len(tb.Rows) != 3 {
		t.Fatalf("Table2 rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.Render(), "lp1") {
		t.Fatal("Table2 missing instance")
	}
}

func TestFig2Runs(t *testing.T) {
	defer dataset.ClearCache()
	tb := Fig2(tiny())
	if len(tb.Rows) != 3 || len(tb.Header) != 6 {
		t.Fatalf("Fig2 shape %dx%d", len(tb.Rows), len(tb.Header))
	}
	want := []string{"graph", "BRIDGE", "RAND(10)", "DEG2", "MPX(0.2)", "BFS rounds"}
	if !slices.Equal(tb.Header, want) {
		t.Fatalf("Fig2 header %q, want %q", tb.Header, want)
	}
}

func TestFiguresRunBothArchs(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	for _, arch := range []core.Arch{core.ArchCPU, core.ArchGPU} {
		for _, f := range []func(Config, core.Arch) (*Table, *Grid){Fig3, Fig4, Fig5} {
			tb, grid := f(cfg, arch)
			if len(tb.Rows) != 3 {
				t.Fatalf("figure rows = %d", len(tb.Rows))
			}
			if len(grid.Cells) != 3 {
				t.Fatalf("grid cells = %d", len(grid.Cells))
			}
		}
	}
}

// TestGPUCellTimeIsItsThreeTerms checks the GPU clock on every GPU cell
// of a small grid: the cell's time is its host decomposition, plus the
// solve phases' host work outside kernels, plus the simulated device time.
// The host term is never negative, since every kernel launches inside a
// solve phase, and the baseline column has no decomposition.
func TestGPUCellTimeIsItsThreeTerms(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	for _, p := range []core.Problem{core.ProblemMM, core.ProblemColor, core.ProblemMIS} {
		grid := RunGrid(cfg, p, core.ArchGPU)
		for _, name := range grid.Graphs {
			for col, c := range grid.Cells[name] {
				if c.Time != c.Decomp+c.Host+c.Sim {
					t.Fatalf("%v %s/%s: time %v, terms %v + %v + %v", p, name, c.Strategy, c.Time, c.Decomp, c.Host, c.Sim)
				}
				if c.Decomp < 0 || c.Host < 0 || c.Sim <= 0 {
					t.Fatalf("%v %s/%s: terms %v + %v + %v", p, name, c.Strategy, c.Decomp, c.Host, c.Sim)
				}
				if col == colBaseline && c.Decomp != 0 {
					t.Fatalf("%v %s: baseline %s charged a %v decomposition", p, name, c.Strategy, c.Decomp)
				}
			}
		}
	}
}

// TestTimeRunReportsMedian: repeats that take 1, 9 and 2 ms report the
// 2 ms run, not their 4 ms mean. Sleeps overrun on a loaded host, so the
// check uses what each repeat took by its own clock, a hair less than
// timeRun's reading of it.
func TestTimeRunReportsMedian(t *testing.T) {
	sleeps := []time.Duration{time.Millisecond, 9 * time.Millisecond, 2 * time.Millisecond}
	took := make([]time.Duration, 0, len(sleeps))
	got := timeRun(Config{Repeats: len(sleeps)}, func() {
		start := time.Now()
		time.Sleep(sleeps[len(took)])
		took = append(took, time.Since(start))
	})
	var mean time.Duration
	for _, d := range took {
		mean += d
	}
	mean /= time.Duration(len(took))
	slices.Sort(took)
	median := took[len(took)/2]
	if (got - median).Abs() >= (got - mean).Abs() {
		t.Fatalf("timeRun = %v; the repeats took %v: median %v, mean %v", got, took, median, mean)
	}
}

func TestColorCountsRuns(t *testing.T) {
	defer dataset.ClearCache()
	tb := ColorCounts(tiny())
	if len(tb.Rows) != 2 {
		t.Fatalf("ColorCounts rows = %d", len(tb.Rows))
	}
}

func TestAblationsRun(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	cfg.Graphs = []string{"lp1"}
	if tb := AblationParts(cfg); len(tb.Rows) != 2 {
		t.Fatalf("AblationParts rows = %d", len(tb.Rows))
	}
	if tb := AblationDegk(cfg); len(tb.Rows) != 2 {
		t.Fatalf("AblationDegk rows = %d", len(tb.Rows))
	}
	if tb := AblationOrder(cfg); len(tb.Rows) != 2 {
		t.Fatalf("AblationOrder rows = %d", len(tb.Rows))
	}
	if tb := DecompStats(cfg); len(tb.Rows) != 1 {
		t.Fatalf("DecompStats rows = %d", len(tb.Rows))
	}
	// Every cell is a median of Repeats runs: its solver opens one
	// decomp span per run.
	col := trace.NewCollector()
	cfg.Repeats, cfg.Trace = 3, col.Root()
	for _, ab := range []struct {
		name  string
		run   func(Config) *Table
		cells int
	}{{"AblationParts", AblationParts, 12}, {"AblationDegk", AblationDegk, 10}, {"AblationOrder", AblationOrder, 6}} {
		col.Reset()
		ab.run(cfg)
		spans := 0
		for _, c := range col.Snapshot().Children {
			if c.Name == "decomp" {
				spans++
			}
		}
		if spans != 3*ab.cells {
			t.Fatalf("%s opened %d decomp spans for %d cells, want 3 each", ab.name, spans, ab.cells)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		1500 * time.Millisecond: "1.50s",
		2 * time.Millisecond:    "2.00ms",
		750 * time.Microsecond:  "750µs",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Fatalf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestMMProgressAndRelabel(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	cfg.Graphs = []string{"rgg-n-2-23-s0"}
	tb := MMProgress(cfg)
	if len(tb.Rows) != 2 {
		t.Fatalf("MMProgress rows = %d", len(tb.Rows))
	}
	// The G_IS row must reach 100%% in no more rounds than plain GM.
	parse := func(s string) int {
		var v int
		if _, err := fmtSscanf(s, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	gm100 := parse(tb.Rows[0][5])
	rand100 := parse(tb.Rows[1][5])
	if rand100 > gm100 {
		t.Fatalf("G_IS needed %d rounds, GM %d", rand100, gm100)
	}
	rl := RelabelAblation(cfg)
	if len(rl.Rows) != 1 {
		t.Fatalf("RelabelAblation rows = %d", len(rl.Rows))
	}
	// Relabeling must collapse GM's round count on the spatially ordered
	// rgg instance.
	orig := parse(rl.Rows[0][1])
	shuf := parse(rl.Rows[0][2])
	if shuf >= orig {
		t.Fatalf("relabeled GM rounds %d not below original %d", shuf, orig)
	}
}

func fmtSscanf(s string, v *int) (int, error) {
	return fmt.Sscanf(s, "%d", v)
}

func TestBaselinesAndBFSAblation(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	cfg.Graphs = []string{"webbase-1M"}
	tabs := Baselines(cfg)
	if len(tabs) != 3 {
		t.Fatalf("Baselines returned %d tables", len(tabs))
	}
	for _, tb := range tabs {
		if len(tb.Rows) != 1 {
			t.Fatalf("%s: %d rows", tb.Title, len(tb.Rows))
		}
	}
	bf := BFSAblation(cfg)
	if len(bf.Rows) != 1 || len(bf.Header) != 5 {
		t.Fatalf("BFSAblation shape %dx%d", len(bf.Rows), len(bf.Header))
	}
}

func TestExtBiconnRuns(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	cfg.Graphs = []string{"webbase-1M"}
	tb := ExtBiconn(cfg)
	if len(tb.Rows) != 3 {
		t.Fatalf("ExtBiconn rows = %d", len(tb.Rows))
	}
}

func TestQualityAndRemark1Run(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	cfg.Graphs = []string{"lp1"}
	q := Quality(cfg)
	if len(q.Rows) != 1 || len(q.Header) != 10 {
		t.Fatalf("Quality shape %dx%d", len(q.Rows), len(q.Header))
	}
	r := Remark1(cfg)
	if len(r.Rows) != 1 {
		t.Fatalf("Remark1 rows = %d", len(r.Rows))
	}
}

func TestScalingAndMarkdown(t *testing.T) {
	defer dataset.ClearCache()
	cfg := tiny()
	cfg.Graphs = []string{"lp1"}
	tb := Scaling(cfg)
	if len(tb.Rows) != 2 || len(tb.Header) != 6 {
		t.Fatalf("Scaling shape %dx%d", len(tb.Rows), len(tb.Header))
	}
	md := tb.Markdown()
	if !strings.Contains(md, "### Scaling") || !strings.Contains(md, "| lp1 |") {
		t.Fatalf("Markdown output wrong:\n%s", md)
	}
}

func TestBarScaling(t *testing.T) {
	if bar(0, time.Second) != "" || bar(time.Second, 0) != "" {
		t.Fatal("degenerate bars must be empty")
	}
	full := bar(time.Second, time.Second)
	half := bar(500*time.Millisecond, time.Second)
	tiny := bar(time.Microsecond, time.Second)
	if len(full) <= len(half) || len(half) <= len(tiny) {
		t.Fatalf("bar lengths not monotone: %d/%d/%d", len(full), len(half), len(tiny))
	}
}
