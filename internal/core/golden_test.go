package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenAnswers pins every Figures 3–5 cell — {MM, COLOR, MIS} ×
// {BASELINE, BRIDGE, RAND, DEGk, MPX} × {CPU, GPU} on the six Table II
// analogs — to the solution digest, headline count and Report.Rounds it
// produced when the table was written. The determinism sweep compares
// worker counts within one build; this compares answers across commits,
// so a refactor that changes any solver output or round count fails here.
// Regenerate only for an intended output change, with -update.
func TestGoldenAnswers(t *testing.T) {
	const (
		scale = 0.05
		seed  = 1
	)
	var got strings.Builder
	for _, name := range []string{"lp1", "coAuthorsCiteseer", "germany-osm",
		"kron-g500-logn20", "rgg-n-2-23-s0", "webbase-1M"} {
		spec, ok := dataset.Get(name)
		if !ok {
			t.Fatalf("unknown dataset analog %q", name)
		}
		g := dataset.Load(spec, scale, seed)
		for _, a := range []Arch{ArchCPU, ArchGPU} {
			for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
				for _, s := range []Strategy{StrategyBaseline, StrategyBridge,
					StrategyRand, StrategyDegk, StrategyMPX} {
					// The harness's cell options: per-instance RAND part
					// counts for MM, the architecture defaults otherwise.
					opt := Options{Strategy: s, Arch: a, Seed: seed, DegK: 2}
					if p == ProblemMM {
						opt.RandParts = spec.MMRandPartsCPU
						if a == ArchGPU {
							opt.RandParts = spec.MMRandPartsGPU
						}
					}
					res, err := SolveVerified(g, p, opt)
					if err != nil {
						t.Fatalf("%s/%v/%v/%v: %v", name, p, s, a, err)
					}
					fmt.Fprintf(&got, "%s %v %v %v %016x %d %d\n", name, p, s, a,
						res.SolutionDigest(), res.SolutionCount(), res.Report.Rounds)
				}
			}
		}
	}

	path := filepath.Join("testdata", "answers.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell %d:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
