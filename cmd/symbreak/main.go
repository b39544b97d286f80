// Command symbreak solves one symmetry-breaking problem on one graph with a
// chosen decomposition strategy and architecture, verifies the solution,
// and prints a run report — the single-cell view of Figures 3–5.
//
// Usage:
//
//	symbreak -problem mis -strategy degk lp1
//	symbreak -problem mm -strategy rand -arch gpu rgg-n-2-23-s0
//	symbreak -problem color -strategy auto -file graph.txt
//	symbreak -problem mm lp1 -serve :9090   # live /metrics + /trace + pprof
//	symbreak -serve :9090 -corpus all       # daemon: POST /solve answers requests
//
// With -serve and a graph argument the process keeps serving after the
// solve completes (until interrupted) so the run's span tree and profiles
// can be inspected. With -serve and no graph argument symbreak runs as a
// daemon: it loads the corpus named by -corpus / -corpus-dir and answers
// POST /solve requests (see docs/API.md) until SIGINT or SIGTERM, then
// drains in-flight requests for up to -drain before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	problem := flag.String("problem", "mis", "mm, color, or mis")
	strategy := flag.String("strategy", "auto", "auto, baseline, bridge, rand, degk, or mpx")
	archFlag := flag.String("arch", "cpu", "cpu or gpu")
	parts := flag.Int("parts", 0, "RAND partition count (0 = paper default)")
	k := flag.Int("k", 0, "DEGk threshold (0 = paper's k=2)")
	beta := flag.Float64("beta", 0, "MPX ball-growing rate (0 = default)")
	seed := flag.Uint64("seed", 1, "seed")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	file := flag.String("file", "", "read a graph from a file (edge list, METIS for .graph/.metis, or binary CSR for .scsr/.bin)")
	digest := flag.Bool("digest", false, "print the 64-bit solution digest (bit-identical across worker counts and load paths)")
	serveAddr := flag.String("serve", "", "serve HTTP on this address: /metrics, /healthz, /trace, /debug/pprof/, and — with a corpus — POST /solve; without a graph argument runs as a daemon")
	corpus := flag.String("corpus", "", "comma-separated dataset instances to serve (or \"all\"); implies daemon endpoints")
	corpusDir := flag.String("corpus-dir", "", "directory of graph files to serve (edge list, METIS for .graph/.metis, or binary CSR for .scsr/.bin — binary files mmap and skip re-hashing)")
	corpusScale := flag.Float64("corpus-scale", 1.0, "scale factor for generated corpus datasets")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
	serveWorkers := flag.Int("serve-workers", 0, "admission worker budget in units (0 = number of workers)")
	serveQueue := flag.Int("serve-queue", 0, "admission queue depth (0 = default 64, negative = no queue: reject immediately under load)")
	serveQueueTimeout := flag.Duration("serve-queue-timeout", 0, "max time a request may queue for admission before 503 (0 = default 2s)")
	serveCacheBytes := flag.Int64("serve-cache-bytes", 0, "solution cache byte budget (0 = default 256 MiB, negative = disable)")
	serveUnitEdges := flag.Int64("serve-unit-edges", 0, "graph edges per admission unit (0 = default 256Ki)")
	serveMaxInline := flag.Int("serve-max-inline", 0, "max inline edges, and vertices, accepted by POST /solve (0 = default 1Mi)")
	logFormat := flag.String("log-format", "text", "per-request log format written to stderr by the daemon: text or json")
	slowLog := flag.Duration("slowlog", 0, "only emit request-log lines for /solve requests at least this slow (0 = log every request)")
	flightN := flag.Int("flight-recorder", 0, "completed /solve requests retained for GET /debug/requests (0 = default 256, negative = disable)")
	flag.Parse()

	oneShot := *file != "" || len(flag.Args()) > 0
	daemon := *serveAddr != "" && !oneShot
	if *serveAddr == "" && (*corpus != "" || *corpusDir != "") {
		fatal(fmt.Errorf("-corpus/-corpus-dir need -serve"))
	}

	var srv *telemetry.Server
	var svc *serve.Service
	if *serveAddr != "" {
		telemetry.Enable(true)
		telemetry.RegisterRuntime(telemetry.Default)
		mux := telemetry.NewMux(telemetry.Default)
		if daemon || *corpus != "" || *corpusDir != "" {
			reqlog, err := telemetry.NewRequestLog(os.Stderr, *logFormat)
			if err != nil {
				fatal(err)
			}
			svc = serve.New(serve.Config{
				Corpus:         buildCorpus(*corpus, *corpusDir, *corpusScale, *seed),
				WorkerBudget:   *serveWorkers,
				QueueDepth:     *serveQueue,
				QueueTimeout:   *serveQueueTimeout,
				CacheBytes:     *serveCacheBytes,
				EdgesPerUnit:   *serveUnitEdges,
				MaxInlineEdges: *serveMaxInline,
				FlightRecorder: *flightN,
				Log:            reqlog,
				SlowLog:        *slowLog,
			})
			svc.Mount(mux)
		}
		var err error
		srv, err = telemetry.ServeHandler(*serveAddr, mux)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "symbreak: telemetry on %s/metrics\n", srv.URL())
	}

	if oneShot {
		// A served one-shot solve records into the process tree, which
		// /trace serves while the process keeps running.
		var tr *trace.Span
		if srv != nil {
			tr = trace.Default.Root()
		}
		runOnce(*file, flag.Args(), *scale, *seed, *problem, *strategy, *archFlag, *parts, *k, *beta, *digest, tr)
		if srv == nil {
			return
		}
		fmt.Fprintf(os.Stderr, "symbreak: serving on %s — Ctrl-C to exit\n", srv.URL())
	} else if daemon {
		fmt.Fprintf(os.Stderr, "symbreak: serving %d corpus graphs on %s/solve — Ctrl-C to exit\n",
			svc.CorpusLen(), srv.URL())
	} else {
		// No graph and no -serve: keep the historical one-shot error.
		if _, err := cli.LoadGraph(*file, flag.Args(), *scale, *seed); err != nil {
			fatal(err)
		}
	}

	awaitShutdown(srv, svc, *drain)
}

// buildCorpus assembles the daemon's graph corpus from the -corpus and
// -corpus-dir flags.
func buildCorpus(names, dir string, scale float64, seed uint64) *serve.Corpus {
	c := serve.NewCorpus()
	if names != "" {
		if err := c.AddDatasets(strings.Split(names, ","), scale, seed); err != nil {
			fatal(err)
		}
	}
	if dir != "" {
		if err := c.AddDir(dir); err != nil {
			fatal(err)
		}
	}
	return c
}

// runOnce is the classic single-solve path: load, solve, verify, report,
// with the run's spans under tr (nil: untraced).
func runOnce(file string, args []string, scale float64, seed uint64,
	problem, strategy, archFlag string, parts, k int, beta float64, digest bool, tr *trace.Span) {
	g, err := cli.LoadGraph(file, args, scale, seed)
	if err != nil {
		fatal(err)
	}
	p, err := cli.ParseProblem(problem)
	if err != nil {
		fatal(err)
	}
	s, err := cli.ParseStrategy(strategy)
	if err != nil {
		fatal(err)
	}
	arch, err := cli.ParseArch(archFlag)
	if err != nil {
		fatal(err)
	}

	res, err := core.SolveVerified(g, p, core.Options{
		Strategy: s, Arch: arch, RandParts: parts, DegK: k, MPXBeta: beta, Seed: seed, Trace: tr,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("graph:      |V|=%d |E|=%d\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("problem:    %v on %v\n", p, arch)
	fmt.Printf("algorithm:  %s\n", res.Report.StrategyName)
	fmt.Printf("decomp:     %v\n", res.Report.Decomp)
	fmt.Printf("solve:      %v\n", res.Report.Solve)
	fmt.Printf("total:      %v\n", res.Report.Total())
	fmt.Printf("rounds:     %d\n", res.Report.Rounds)
	if arch == core.ArchGPU {
		st := res.Report.GPUStats
		fmt.Printf("gpu:        %d launches, %d threads, sim time %v\n",
			st.Launches, st.ThreadsRun, st.SimTime)
	}
	switch {
	case res.Matching != nil:
		fmt.Printf("matching:   %d edges (verified maximal)\n", res.Matching.Cardinality())
	case res.Coloring != nil:
		fmt.Printf("coloring:   %d colors (verified proper)\n", res.Coloring.NumColors())
	case res.IndepSet != nil:
		fmt.Printf("mis:        %d vertices (verified maximal)\n", res.IndepSet.Size())
	}
	if digest {
		fmt.Printf("digest:     %016x\n", res.SolutionDigest())
	}
}

// awaitShutdown blocks until SIGINT or SIGTERM, then drains the HTTP
// server gracefully: in-flight solves get up to the drain deadline to
// finish before connections are closed hard.
func awaitShutdown(srv *telemetry.Server, svc *serve.Service, drain time.Duration) {
	if srv == nil {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	sig := <-ch
	fmt.Fprintf(os.Stderr, "symbreak: %v — draining for up to %v\n", sig, drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "symbreak: shutdown: %v\n", err)
	}
	if svc != nil {
		s := svc.Snapshot()
		fmt.Fprintf(os.Stderr,
			"symbreak: served %d runs (%d coalesced, %d cache hits, %d misses, %d evictions)\n",
			s.Runs, s.Coalesced, s.CacheHits, s.CacheMisses, s.Evicted)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "symbreak:", err)
	os.Exit(1)
}
