// Command benchall regenerates every table and figure of the paper's
// evaluation on the synthetic dataset analogs.
//
// Usage:
//
//	benchall -exp all                 # everything (Tables I–II, Figures 2–5, extras)
//	benchall -exp fig3 -arch cpu      # one figure, one architecture
//	benchall -exp table2 -scale 0.5   # smaller instances
//	benchall -exp ablation-parts -graphs lp1,webbase-1M
//
// Experiments: table1, table2, fig2, fig3, fig4, fig5, colors,
// ablation-parts, ablation-degk, ablation-order, ablation-relabel,
// ablation-bfs, baselines, ext-biconn, remark1, quality, scaling,
// mm-progress, decomp-stats, rounds-phases, all.
//
// Observability: -trace prints a per-experiment span table on stderr;
// -traceout FILE writes the same trees as JSON and -chrometrace FILE as
// Chrome trace-event JSON for Perfetto (both imply -trace); -parstats
// prints the parallel-runtime counters per experiment;
// -cpuprofile/-memprofile write pprof profiles; -serve ADDR runs a live
// telemetry HTTP server (/metrics, /healthz, /trace, /debug/pprof/) for
// the duration of the run. See DESIGN.md § Observability.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see doc comment)")
	arch := flag.String("arch", "both", "cpu, gpu, or both (figures only)")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	seed := flag.Uint64("seed", 1, "random seed")
	repeats := flag.Int("repeats", 1, "timed repetitions per cell (median)")
	graphs := flag.String("graphs", "", "comma-separated instance names (default: all 12)")
	verify := flag.Bool("verify", true, "verify every solution")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	md := flag.Bool("md", false, "emit GitHub-flavored Markdown tables")
	parstats := flag.Bool("parstats", false, "collect and print parallel-runtime counters per experiment (pool dispatches, inline loops, chunks, chunk steals)")
	traceOn := flag.Bool("trace", false, "collect phase/round traces and print a span table per experiment")
	traceOut := flag.String("traceout", "", "write the traces as JSON to this file (implies -trace)")
	chromeOut := flag.String("chrometrace", "", "write the traces as Chrome trace-event JSON for Perfetto to this file (implies -trace)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	serve := flag.String("serve", "", "serve live telemetry over HTTP on this address for the duration of the run (/metrics, /healthz, /trace, /debug/pprof/)")
	flag.Parse()

	if *parstats {
		par.EnableStats(true)
		par.ResetStats()
	}
	// A trace output file without -trace would silently record nothing;
	// asking for the file is asking for the trace.
	if *traceOut != "" || *chromeOut != "" {
		*traceOn = true
	}
	if *serve != "" {
		telemetry.Enable(true)
		par.EnableStats(true) // feed the par_pool_* gauges
		srv, err := telemetry.Serve(*serve, telemetry.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		defer srv.Close()
		sampler := telemetry.StartRuntimeSampler(telemetry.Default, time.Second)
		defer sampler.Stop()
		fmt.Fprintf(os.Stderr, "benchall: telemetry on %s/metrics\n", srv.URL())
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := harness.Config{
		Scale:   *scale,
		Seed:    *seed,
		Repeats: *repeats,
		Verify:  *verify,
	}
	// The experiments record into the process tree, which the /trace
	// endpoint serves live. Without -trace it accumulates over the whole
	// run (never reset), which is exactly what a mid-run snapshot wants.
	if *traceOn || *serve != "" {
		cfg.Trace = trace.Default.Root()
	}
	if *graphs != "" {
		cfg.Graphs = strings.Split(*graphs, ",")
		for _, name := range cfg.Graphs {
			if _, ok := dataset.Get(name); !ok {
				fmt.Fprintf(os.Stderr, "benchall: unknown instance %q (known: %v)\n",
					name, dataset.Names())
				os.Exit(2)
			}
		}
	}

	emit := func(t *harness.Table) {
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *md:
			fmt.Println(t.Markdown())
		default:
			fmt.Println(t.Render())
		}
	}
	archs := func() []core.Arch {
		switch *arch {
		case "cpu":
			return []core.Arch{core.ArchCPU}
		case "gpu":
			return []core.Arch{core.ArchGPU}
		default:
			return []core.Arch{core.ArchCPU, core.ArchGPU}
		}
	}

	start := time.Now()
	dispatch := func(id string) {
		switch id {
		case "table1":
			emit(harness.Table1(cfg))
		case "table2":
			emit(harness.Table2(cfg))
		case "fig2":
			emit(harness.Fig2(cfg))
		case "fig3":
			for _, a := range archs() {
				t, _ := harness.Fig3(cfg, a)
				emit(t)
			}
		case "fig4":
			for _, a := range archs() {
				t, _ := harness.Fig4(cfg, a)
				emit(t)
			}
		case "fig5":
			for _, a := range archs() {
				t, _ := harness.Fig5(cfg, a)
				emit(t)
			}
		case "colors":
			emit(harness.ColorCounts(cfg))
		case "ablation-parts":
			emit(harness.AblationParts(cfg))
		case "ablation-degk":
			emit(harness.AblationDegk(cfg))
		case "ablation-order":
			emit(harness.AblationOrder(cfg))
		case "decomp-stats":
			emit(harness.DecompStats(cfg))
		case "mm-progress":
			emit(harness.MMProgress(cfg))
		case "rounds-phases":
			emit(harness.RoundsPhases(cfg))
		case "ablation-relabel":
			emit(harness.RelabelAblation(cfg))
		case "ablation-bfs":
			emit(harness.BFSAblation(cfg))
		case "baselines":
			for _, tb := range harness.Baselines(cfg) {
				emit(tb)
			}
		case "ext-biconn":
			emit(harness.ExtBiconn(cfg))
		case "remark1":
			emit(harness.Remark1(cfg))
		case "quality":
			emit(harness.Quality(cfg))
		case "scaling":
			emit(harness.Scaling(cfg))
		default:
			fmt.Fprintf(os.Stderr, "benchall: unknown experiment %q\n", id)
			os.Exit(2)
		}
	}

	// expTrace pairs an experiment id with its span tree for -traceout.
	type expTrace struct {
		Exp   string       `json:"exp"`
		Trace trace.Export `json:"trace"`
	}
	var traces []expTrace

	// run wraps dispatch with the per-experiment observability: counters
	// and traces are reset before and reported after each experiment, so
	// every printed table is attributable to the table above it.
	run := func(id string) {
		if *parstats {
			par.ResetStats()
		}
		if *traceOn {
			trace.Default.Reset()
		}
		dispatch(id)
		if *parstats {
			fmt.Fprintf(os.Stderr, "benchall[%s]: %s\n", id, harness.RuntimeStatsNote())
		}
		if *traceOn {
			snap := trace.Default.Snapshot()
			snap.Name = id
			fmt.Fprintf(os.Stderr, "== trace %s ==\n%s", id, snap.Render())
			traces = append(traces, expTrace{Exp: id, Trace: snap})
		}
	}

	if *exp == "all" {
		for _, id := range []string{
			"table2", "fig2", "fig3", "fig4", "fig5", "table1", "colors",
			"decomp-stats",
		} {
			run(id)
		}
	} else {
		run(*exp)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(traces); err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchall: wrote %d traces to %s\n", len(traces), *traceOut)
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		trees := make([]trace.Export, len(traces))
		for i, t := range traces {
			trees[i] = t.Trace
		}
		if err := trace.ExportChromeTrace(f, trees...); err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchall: wrote Chrome trace (%d experiments) to %s — open in https://ui.perfetto.dev\n",
			len(trees), *chromeOut)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchall:", err)
			os.Exit(1)
		}
		f.Close()
	}
	fmt.Fprintf(os.Stderr, "benchall: done in %v\n", time.Since(start).Round(time.Millisecond))
}
