package dataset

import (
	"os"
	"testing"

	"repro/internal/graph"
)

const testScale = 0.05

func TestRegistryComplete(t *testing.T) {
	if len(All()) != 12 {
		t.Fatalf("registry has %d instances, Table II has 12", len(All()))
	}
	seen := map[string]bool{}
	for _, s := range All() {
		if s.Name == "" || s.Class == "" {
			t.Fatalf("spec missing name or class: %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate instance %s", s.Name)
		}
		seen[s.Name] = true
		if s.Paper.Vertices <= 0 || s.Paper.Edges <= 0 {
			t.Fatalf("%s: paper row not filled", s.Name)
		}
		if s.MMRandPartsCPU < 2 || s.MMRandPartsGPU < 2 {
			t.Fatalf("%s: partition counts not set", s.Name)
		}
	}
}

func TestGetAndNames(t *testing.T) {
	if _, ok := Get("lp1"); !ok {
		t.Fatal("lp1 missing")
	}
	if _, ok := Get("no-such"); ok {
		t.Fatal("bogus name resolved")
	}
	names := Names()
	if len(names) != 12 || names[0] != "c-73" {
		t.Fatalf("Names() = %v", names)
	}
}

func TestAllInstancesBuildValidConnected(t *testing.T) {
	for _, s := range All() {
		g := s.Build(testScale, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if _, nc := graph.ConnectedComponents(g); nc != 1 {
			t.Fatalf("%s: %d components after cleanup", s.Name, nc)
		}
		if g.NumVertices() < 8 || g.NumEdges() < 4 {
			t.Fatalf("%s: degenerate build n=%d m=%d", s.Name, g.NumVertices(), g.NumEdges())
		}
	}
}

func TestStructuralColumnsQualitative(t *testing.T) {
	// The decisive Table II columns must hold qualitatively at test scale:
	// high-%DEG2 instances stay high, zero stays ~zero, and relative
	// ordering of the extremes is preserved.
	stats := map[string]graph.Stats{}
	for _, name := range []string{"lp1", "rgg-n-2-23-s0", "germany-osm", "webbase-1M"} {
		s, _ := Get(name)
		g := Load(s, testScale, 1)
		stats[name] = graph.ComputeStats(g, true)
	}
	if stats["lp1"].PctDeg2 < 80 {
		t.Fatalf("lp1 %%DEG2 = %.1f, want > 80", stats["lp1"].PctDeg2)
	}
	if stats["lp1"].PctBridges < 75 {
		t.Fatalf("lp1 %%BRIDGES = %.1f, want > 75", stats["lp1"].PctBridges)
	}
	if stats["rgg-n-2-23-s0"].PctDeg2 > 5 {
		t.Fatalf("rgg %%DEG2 = %.1f, want ≈ 0", stats["rgg-n-2-23-s0"].PctDeg2)
	}
	if stats["germany-osm"].PctDeg2 < 60 {
		t.Fatalf("germany-osm %%DEG2 = %.1f, want > 60", stats["germany-osm"].PctDeg2)
	}
	if stats["webbase-1M"].PctBridges < 20 {
		t.Fatalf("webbase %%BRIDGES = %.1f, want > 20", stats["webbase-1M"].PctBridges)
	}
}

func TestLoadCaches(t *testing.T) {
	defer ClearCache()
	s, _ := Get("lp1")
	a := Load(s, testScale, 7)
	b := Load(s, testScale, 7)
	if a != b {
		t.Fatal("Load did not cache")
	}
	c := Load(s, testScale, 8)
	if a == c {
		t.Fatal("different seeds shared a cache entry")
	}
}

func TestScaleChangesSize(t *testing.T) {
	s, _ := Get("coAuthorsCiteseer")
	small := s.Build(0.02, 3)
	large := s.Build(0.08, 3)
	if large.NumVertices() <= small.NumVertices() {
		t.Fatalf("scale had no effect: %d vs %d", small.NumVertices(), large.NumVertices())
	}
}

func TestDiskCache(t *testing.T) {
	defer ClearCache()
	dir := t.TempDir()
	t.Setenv(CacheDirEnv, dir)
	s, _ := Get("lp1")

	a := Load(s, testScale, 9)
	p := diskCachePath(dir, s, testScale, 9)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("disk cache entry not written: %v", err)
	}

	// A fresh in-process cache must hit the disk entry and agree exactly.
	ClearCache()
	b := Load(s, testScale, 9)
	if a == b {
		t.Fatal("in-process cache not cleared (test is vacuous)")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("disk-cached graph fingerprint %#x, want %#x", b.Fingerprint(), a.Fingerprint())
	}

	// A corrupt entry falls back to the generator and is repaired.
	ClearCache()
	if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := Load(s, testScale, 9)
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("corrupt disk entry changed the loaded graph")
	}
	if fi, err := os.Stat(p); err != nil || fi.Size() <= 4 {
		t.Fatalf("corrupt entry not rewritten (err=%v)", err)
	}
}
