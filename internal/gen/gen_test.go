package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestKronShape(t *testing.T) {
	g := Kron(12, 16, 1)
	if g.NumVertices() != 4096 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dedup and self-loop removal shrink the count; still expect a dense
	// heavy-tailed graph.
	if g.NumEdges() < 4096*4 {
		t.Fatalf("m = %d, too sparse for edge factor 16", g.NumEdges())
	}
	// Heavy tail: the max degree dwarfs the average.
	if float64(g.MaxDegree()) < 5*g.AvgDegree() {
		t.Fatalf("max degree %d vs avg %.1f: no heavy tail", g.MaxDegree(), g.AvgDegree())
	}
}

func TestKronDeterministic(t *testing.T) {
	a := Kron(10, 8, 7)
	b := Kron(10, 8, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("Kron not deterministic")
	}
	c := Kron(10, 8, 8)
	if a.NumEdges() == c.NumEdges() && a.MaxDegree() == c.MaxDegree() {
		t.Log("warning: different seeds produced identical summary (possible but unlikely)")
	}
}

func TestRGGShape(t *testing.T) {
	n := 5000
	target := 12.0
	g := RGG(n, DegreeRadius(n, target), 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() < target*0.7 || g.AvgDegree() > target*1.3 {
		t.Fatalf("avg degree %.1f, want ≈ %.0f", g.AvgDegree(), target)
	}
	// The defining Table II property of rgg at this density: essentially no
	// degree ≤ 2 vertices.
	s := graph.ComputeStats(g, false)
	if s.PctDeg2 > 5 {
		t.Fatalf("%%DEG2 = %.1f, want ≈ 0", s.PctDeg2)
	}
}

func TestRoadShape(t *testing.T) {
	g := Road(30, 30, 4, 0.3, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g, true)
	// Road class: avg degree ≈ 2, majority of vertices degree ≤ 2,
	// noticeable bridges from the spurs.
	if s.AvgDegree > 3.0 {
		t.Fatalf("avg degree %.2f, want road-like ≈ 2", s.AvgDegree)
	}
	if s.PctDeg2 < 50 {
		t.Fatalf("%%DEG2 = %.1f, want > 50", s.PctDeg2)
	}
	if s.PctBridges < 5 {
		t.Fatalf("%%BRIDGES = %.1f, want noticeable", s.PctBridges)
	}
}

func TestPrefAttachShape(t *testing.T) {
	g := PrefAttach(4000, 5, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() < 6 || g.AvgDegree() > 11 {
		t.Fatalf("avg degree %.1f, want ≈ 2·outdeg", g.AvgDegree())
	}
	if float64(g.MaxDegree()) < 4*g.AvgDegree() {
		t.Fatalf("max degree %d: no hubs", g.MaxDegree())
	}
	// Connected by construction.
	s := graph.ComputeStats(g, false)
	if s.Components != 1 {
		t.Fatalf("%d components", s.Components)
	}
}

func TestCommunityShape(t *testing.T) {
	g := Community(3000, 30, 5, 1, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.AvgDegree() < 5 || g.AvgDegree() > 13 {
		t.Fatalf("avg degree %.1f", g.AvgDegree())
	}
}

func TestBandedShape(t *testing.T) {
	g := Banded(3000, 20, 4, 0.5, 6)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g, true)
	if s.PctDeg2 < 20 {
		t.Fatalf("%%DEG2 = %.1f, want numerical-class mix", s.PctDeg2)
	}
	if s.PctBridges < 5 {
		t.Fatalf("%%BRIDGES = %.1f, want chains to add bridges", s.PctBridges)
	}
}

func TestLPShape(t *testing.T) {
	g := LP(20000, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g, true)
	// lp1's defining columns: ≈94% deg ≤ 2, ≈93% bridges, avg degree ≈ 2.
	if s.PctDeg2 < 85 {
		t.Fatalf("%%DEG2 = %.1f, want > 85", s.PctDeg2)
	}
	if s.PctBridges < 80 {
		t.Fatalf("%%BRIDGES = %.1f, want > 80", s.PctBridges)
	}
	if s.AvgDegree > 3 {
		t.Fatalf("avg degree %.1f, want ≈ 2", s.AvgDegree)
	}
}

func TestWebShape(t *testing.T) {
	g := Web(20000, 8)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g, true)
	// webbase-1M: high %DEG2, lots of bridges, avg degree around 4.
	if s.PctDeg2 < 55 {
		t.Fatalf("%%DEG2 = %.1f, want chain-heavy", s.PctDeg2)
	}
	if s.PctBridges < 20 {
		t.Fatalf("%%BRIDGES = %.1f, want > 20", s.PctBridges)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	pairs := []func() *graph.Graph{
		func() *graph.Graph { return RGG(2000, DegreeRadius(2000, 10), 9) },
		func() *graph.Graph { return Road(10, 10, 3, 0.2, 9) },
		func() *graph.Graph { return PrefAttach(1000, 4, 9) },
		func() *graph.Graph { return Community(1000, 20, 4, 1, 9) },
		func() *graph.Graph { return Banded(1000, 10, 3, 0.3, 9) },
		func() *graph.Graph { return LP(2000, 9) },
		func() *graph.Graph { return Web(2000, 9) },
	}
	for i, mk := range pairs {
		a, b := mk(), mk()
		if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
			t.Fatalf("generator %d not deterministic", i)
		}
	}
}

func TestPrefAttachVarShape(t *testing.T) {
	g := PrefAttachVar(4000, 1, 9, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Average out-degree 5 → average degree ≈ 10; the low end creates a
	// deg ≤ 2 population pure PrefAttach lacks.
	if g.AvgDegree() < 6 || g.AvgDegree() > 12 {
		t.Fatalf("avg degree %.1f", g.AvgDegree())
	}
	s := graph.ComputeStats(g, false)
	if s.PctDeg2 < 5 {
		t.Fatalf("%%DEG2 = %.1f, want a visible low-degree tail", s.PctDeg2)
	}
	// Degenerate parameters clamp instead of failing.
	if g := PrefAttachVar(50, 0, 0, 1); g.NumVertices() != 50 {
		t.Fatal("clamped parameters broke the build")
	}
}

func TestPadChainsEdgeCases(t *testing.T) {
	base := PrefAttach(100, 3, 1)
	if g := PadChains(base, 0, 4, 2); g != base {
		t.Fatal("extra=0 must return the input unchanged")
	}
	g := PadChains(base, 57, 0, 2) // maxLen clamps to 1
	if g.NumVertices() != 157 {
		t.Fatalf("padded to %d vertices", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every one of the 57 padded leaf edges is a bridge.
	s := graph.ComputeStats(g, true)
	wantPct := 100 * 57.0 / float64(g.NumEdges())
	if s.PctBridges < wantPct-1 {
		t.Fatalf("%%BRIDGES = %.1f after padding, want ≥ %.1f", s.PctBridges, wantPct)
	}
}

func TestCommunityClamps(t *testing.T) {
	g := Community(100, 1, 0, 1, 5) // commSize and inDeg clamp
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWebSmall(t *testing.T) {
	g := Web(30, 4) // hubPart clamps to 10
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 30 {
		t.Fatalf("n = %d", g.NumVertices())
	}
}

func TestLPSmallCore(t *testing.T) {
	g := LP(60, 2) // core clamps to 2
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKronStreamMatchesKron(t *testing.T) {
	const scale, ef, seed = 10, 8, 7
	want := Kron(scale, ef, seed)
	s := NewKronStream(scale, ef, seed)
	if s.NumVertices() != want.NumVertices() {
		t.Fatalf("stream n = %d, want %d", s.NumVertices(), want.NumVertices())
	}
	b := graph.NewBuilder(s.NumVertices())
	buf := make([]graph.Edge, 777) // odd batch size to exercise refills
	var total int64
	for {
		k, err := s.Next(buf)
		b.AddEdges(buf[:k])
		total += int64(k)
		if err != nil {
			break
		}
	}
	if total != s.NumEdges() {
		t.Fatalf("stream yielded %d edges, declared %d", total, s.NumEdges())
	}
	got := b.Build()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("stream-built graph fingerprint %#x, want %#x", got.Fingerprint(), want.Fingerprint())
	}
}

func TestKronStreamExternalBuild(t *testing.T) {
	const scale, ef, seed = 9, 6, 3
	dir := t.TempDir()
	p := dir + "/kron.scsr"
	hdr, err := graph.BuildBinaryExternal(p, NewKronStream(scale, ef, seed),
		graph.ExtOptions{TmpDir: dir, ChunkArcs: 1 << 10, Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := Kron(scale, ef, seed)
	if hdr.Fingerprint != want.Fingerprint() {
		t.Fatalf("external kron fingerprint %#x, want %#x", hdr.Fingerprint, want.Fingerprint())
	}
	if _, err := graph.VerifyBinaryFile(p); err != nil {
		t.Fatal(err)
	}
}
