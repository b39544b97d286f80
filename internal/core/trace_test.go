package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestTracePhaseCoverage checks the observability contract the docs promise:
// with tracing on, every Solve produces a span tree whose top-level span
// wraps the whole call and whose phase children account for (almost) all of
// it — the per-phase times must sum to the solver's wall clock up to the
// instrumentation's own overhead. The bound here is looser than the 5%
// documented for benchall-sized runs because these test graphs solve in
// microseconds, where fixed span overhead weighs proportionally more.
// The solve phases' rounds counters must sum to Report.Rounds and to the
// top span's rounds: a phase that records its rounds twice fails here.
func TestTracePhaseCoverage(t *testing.T) {
	g := randomGraph(4000, 40000, 3)

	for _, a := range []Arch{ArchCPU, ArchGPU} {
		for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
			for _, s := range []Strategy{StrategyBaseline, StrategyBridge, StrategyRand, StrategyDegk, StrategyMPX} {
				col := trace.NewCollector()
				res, err := Solve(g, p, Options{Strategy: s, Arch: a, Seed: 7, Trace: col.Root()})
				if err != nil {
					t.Fatalf("%v/%v/%v: %v", p, s, a, err)
				}
				snap := col.Snapshot()
				if len(snap.Children) != 1 {
					t.Fatalf("%v/%v/%v: want one top-level span, got %d", p, s, a, len(snap.Children))
				}
				top := snap.Children[0]
				if top.Dur() <= 0 {
					t.Fatalf("%v/%v/%v: top span has no duration", p, s, a)
				}
				cover := float64(top.ChildSum()) / float64(top.DurNs)
				if cover < 0.5 || cover > 1.01 {
					t.Errorf("%v/%v/%v: phase spans cover %.0f%% of %v (%s)",
						p, s, a, cover*100, top.Dur(), top.Name)
				}
				if top.Counter("rounds") <= 0 {
					t.Errorf("%v/%v/%v: top span missing rounds counter", p, s, a)
				}
				var solves int
				var rounds int64
				for _, c := range top.Children {
					if strings.HasPrefix(c.Name, "solve") {
						solves++
						rounds += c.Counter("rounds")
					}
				}
				if solves == 0 {
					t.Errorf("%v/%v/%v: no solve/* phase spans", p, s, a)
				}
				if rounds != int64(res.Report.Rounds) || rounds != top.Counter("rounds") {
					t.Errorf("%v/%v/%v: solve phases count %d rounds, Report.Rounds %d, top span %d",
						p, s, a, rounds, res.Report.Rounds, top.Counter("rounds"))
				}
				// Decomposed strategies must expose a decomp phase.
				if s != StrategyBaseline && top.Find("decomp") == nil {
					t.Errorf("%v/%v/%v: no decomp span", p, s, a)
				}
			}
		}
	}
}

// TestTraceDisabledProducesNothing pins the zero-cost path at this layer:
// a Solve with a nil Options.Trace records nothing, not even into the
// process tree.
func TestTraceDisabledProducesNothing(t *testing.T) {
	trace.Default.Reset()
	g := randomGraph(500, 2000, 4)
	if _, err := Solve(g, ProblemMIS, Options{Strategy: StrategyDegk, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	snap := trace.Default.Snapshot()
	if len(snap.Children) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("untraced solve recorded data: %+v", snap)
	}
}

// TestTraceVocabulary pins where the explicit span tree puts the inner
// layers, for every problem × strategy × arch: a BRIDGE run's decomp span
// opens with find-bridges, whose bfs child carries the BFS's per-round
// frontier series; an MPX run's decomp span holds mpx-grow with the ball
// growing's frontier series; and on the GPU the gpu_launches counters of
// the core span's phase children sum to Report.GPUStats.Launches, so every
// kernel launch is attributed to exactly one phase.
func TestTraceVocabulary(t *testing.T) {
	g := randomGraph(3000, 9000, 5)
	for _, a := range []Arch{ArchCPU, ArchGPU} {
		for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
			for _, s := range []Strategy{StrategyBaseline, StrategyBridge, StrategyRand, StrategyDegk, StrategyMPX} {
				cell := fmt.Sprintf("%v/%v/%v", p, s, a)
				col := trace.NewCollector()
				res, err := Solve(g, p, Options{Strategy: s, Arch: a, Seed: 3, Trace: col.Root()})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				top := col.Snapshot().Children[0]
				d := top.Find("decomp")
				switch s {
				case StrategyBridge:
					if d == nil || len(d.Children) == 0 || d.Children[0].Name != "find-bridges" {
						t.Errorf("%s: decomp span does not open with find-bridges: %+v", cell, d)
					} else if bfs := d.Children[0].Find("bfs"); bfs == nil || len(bfs.Series["frontier"]) == 0 {
						t.Errorf("%s: find-bridges has no bfs span with a frontier series: %+v", cell, d.Children[0])
					}
				case StrategyMPX:
					if d == nil || len(d.Children) == 0 || d.Children[0].Name != "mpx-grow" {
						t.Errorf("%s: decomp span does not open with mpx-grow: %+v", cell, d)
					} else if len(d.Children[0].Series["frontier"]) == 0 {
						t.Errorf("%s: mpx-grow carries no frontier series", cell)
					}
				}
				if a != ArchGPU {
					continue
				}
				var launches int64
				for _, c := range top.Children {
					launches += c.Counter("gpu_launches")
				}
				if launches == 0 || launches != res.Report.GPUStats.Launches {
					t.Errorf("%s: phase spans count %d gpu_launches, Report.GPUStats.Launches %d",
						cell, launches, res.Report.GPUStats.Launches)
				}
			}
		}
	}
}
