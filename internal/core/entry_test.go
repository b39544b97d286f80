package core

import "testing"

func TestSolveVerified(t *testing.T) {
	g := randomGraph(300, 1200, 3)
	for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
		res, err := SolveVerified(g, p, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.SolutionCount() == 0 {
			t.Errorf("%v: zero solution count", p)
		}
		if res.SolutionDigest() == 0 {
			t.Errorf("%v: zero digest", p)
		}
	}
	if _, err := SolveVerified(g, Problem(9), Options{Seed: 7}); err == nil {
		t.Fatal("unknown problem accepted")
	}
}

func TestSolutionDigestDeterministic(t *testing.T) {
	g := randomGraph(400, 1600, 9)
	for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
		a, err := SolveVerified(g, p, Options{Strategy: StrategyRand, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveVerified(g, p, Options{Strategy: StrategyRand, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if a.SolutionDigest() != b.SolutionDigest() {
			t.Errorf("%v: digest differs under same seed", p)
		}
		c, err := SolveVerified(g, p, Options{Strategy: StrategyRand, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		// Different seeds should (overwhelmingly) give different payloads;
		// equal digests with equal payloads are fine, so only flag when the
		// solutions actually differ.
		if c.SolutionDigest() == a.SolutionDigest() && c.SolutionCount() != a.SolutionCount() {
			t.Errorf("%v: different solutions, same digest", p)
		}
	}
	if (&Result{}).SolutionDigest() != 0 || (&Result{}).SolutionCount() != 0 {
		t.Error("empty result should digest/count to 0")
	}
}

func TestNormalized(t *testing.T) {
	o := Options{}.Normalized()
	if o.RandParts != 10 || o.DegK != 2 || o.MPXBeta <= 0 {
		t.Fatalf("CPU defaults not applied: %+v", o)
	}
	og := Options{Arch: ArchGPU}.Normalized()
	if og.RandParts != 4 {
		t.Fatalf("GPU defaults not applied: %+v", og)
	}
	// Normalized is pure: a GPU run without a machine gets one in Solve.
	if og.Machine != nil {
		t.Fatal("Normalized created a bsp.Machine")
	}
	res, err := Solve(randomGraph(50, 100, 1), ProblemMM, Options{Arch: ArchGPU})
	if err != nil || res.Report.GPUStats.Launches == 0 {
		t.Fatalf("GPU Solve without a machine: err %v, launches %d", err, res.Report.GPUStats.Launches)
	}
	// Explicit values survive normalization.
	ex := Options{RandParts: 7, DegK: 3, MPXBeta: 0.5}.Normalized()
	if ex.RandParts != 7 || ex.DegK != 3 || ex.MPXBeta != 0.5 {
		t.Fatalf("explicit values clobbered: %+v", ex)
	}
}
