// Package dataset registers the twelve synthetic analogs of the paper's
// Table II graphs. Each spec carries the paper's published statistics (for
// the paper-vs-measured comparison in EXPERIMENTS.md), a deterministic
// builder at an adjustable scale, and the per-instance algorithm parameters
// the paper reports (the RAND partition counts).
//
// Scale 1.0 is the default benchmarking size — a few hundred thousand edges
// per instance, chosen so the full experiment grid runs on a laptop while
// preserving every structural column that drives the paper's results.
// Tests use smaller scales.
package dataset

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
)

// PaperRow holds the columns of Table II as published.
type PaperRow struct {
	Vertices   int
	Edges      int64
	PctDeg2    float64
	PctBridges float64
	AvgDegree  float64
}

// Spec describes one dataset instance.
type Spec struct {
	// Name is the paper's instance name (e.g. "lp1").
	Name string
	// Class is the paper's graph class row label.
	Class string
	// Paper holds the published Table II statistics for comparison.
	Paper PaperRow
	// MMRandPartsCPU / MMRandPartsGPU are the RAND partition counts for
	// the MM experiments (paper: 10 on CPU, 4 on GPU; raised toward the
	// average degree on the kron instances).
	MMRandPartsCPU int
	MMRandPartsGPU int
	// Build constructs the analog at the given scale (1.0 = default bench
	// size) with a deterministic seed.
	Build func(scale float64, seed uint64) *graph.Graph
}

// scaled returns max(8, round(base·scale)).
func scaled(base int, scale float64) int {
	n := int(math.Round(float64(base) * scale))
	if n < 8 {
		n = 8
	}
	return n
}

// kronScale returns the RMAT scale whose 2^s is closest to base·scale.
func kronScale(base int, scale float64) int {
	target := float64(base) * scale
	s := int(math.Round(math.Log2(target)))
	if s < 4 {
		s = 4
	}
	return s
}

// specs lists the twelve instances in Table II order.
var specs = []Spec{
	{
		Name: "c-73", Class: "Numerical",
		Paper:          PaperRow{169422, 1109852, 48.7, 14.9, 6.6},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			return connect(gen.Banded(scaled(40000, scale), 120, 5, 0.35, seed))
		},
	},
	{
		Name: "lp1", Class: "Numerical",
		Paper:          PaperRow{534388, 1109032, 93.8, 92.7, 2.1},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			return connect(gen.LP(scaled(120000, scale), seed))
		},
	},
	{
		Name: "Cit-Patents", Class: "Collaboration",
		Paper:          PaperRow{3774768, 33045146, 28.06, 4.1, 8.8},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			core := gen.PrefAttachVar(scaled(48000, scale), 1, 8, seed)
			return connect(gen.PadChains(core, scaled(11000, scale), 1, seed+1))
		},
	},
	{
		Name: "coAuthorsCiteseer", Class: "Collaboration",
		Paper:          PaperRow{227320, 1628268, 28.97, 3.7, 7.2},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			core := gen.Community(scaled(38000, scale), 25, 4, 1, seed)
			return connect(gen.PadChains(core, scaled(13000, scale), 1, seed+1))
		},
	},
	{
		Name: "germany-osm", Class: "Road",
		Paper:          PaperRow{11548845, 24738362, 82.27, 19.9, 2.1},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			side := scaled(55, math.Sqrt(scale))
			return connect(gen.Road(side, side, 20, 0.5, seed))
		},
	},
	{
		Name: "road-central", Class: "Road",
		Paper:          PaperRow{14081816, 33866826, 50.91, 25, 2.4},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			side := scaled(170, math.Sqrt(scale))
			return connect(gen.Road(side, side, 1, 1.0, seed))
		},
	},
	{
		Name: "kron-g500-logn20", Class: "Synthetic",
		Paper:          PaperRow{1048576, 89238804, 42.1, 0.3, 85.1},
		MMRandPartsCPU: 32, MMRandPartsGPU: 16, // paper raises k toward the average degree on kron
		Build: func(scale float64, seed uint64) *graph.Graph {
			return connect(gen.Kron(kronScale(32768, scale), 24, seed))
		},
	},
	{
		Name: "kron-g500-logn21", Class: "Synthetic",
		Paper:          PaperRow{2097152, 182081864, 44.59, 0.3, 86.8},
		MMRandPartsCPU: 32, MMRandPartsGPU: 16,
		Build: func(scale float64, seed uint64) *graph.Graph {
			return connect(gen.Kron(kronScale(65536, scale), 24, seed))
		},
	},
	{
		Name: "rgg-n-2-23-s0", Class: "Random geometric",
		Paper:          PaperRow{8388608, 127002794, 0, 0, 15.1},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			n := scaled(90000, scale)
			return connect(gen.RGG(n, gen.DegreeRadius(n, 15.1), seed))
		},
	},
	{
		Name: "rgg-n-2-24-s0", Class: "Random geometric",
		Paper:          PaperRow{16777216, 265114402, 0, 0, 15.8},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			n := scaled(140000, scale)
			return connect(gen.RGG(n, gen.DegreeRadius(n, 15.8), seed))
		},
	},
	{
		Name: "web-Google", Class: "Web",
		Paper:          PaperRow{916428, 10296998, 30.67, 4, 11.2},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			core := gen.PrefAttachVar(scaled(33000, scale), 2, 12, seed)
			return connect(gen.PadChains(core, scaled(12000, scale), 1, seed+1))
		},
	},
	{
		Name: "webbase-1M", Class: "Web",
		Paper:          PaperRow{1000005, 4216602, 87.35, 38.3, 4.2},
		MMRandPartsCPU: 10, MMRandPartsGPU: 4,
		Build: func(scale float64, seed uint64) *graph.Graph {
			return connect(gen.Web(scaled(120000, scale), seed))
		},
	},
}

// connect applies the paper's dataset cleanup: add edges so the graph is
// connected.
func connect(g *graph.Graph) *graph.Graph {
	out, _ := graph.Connect(g)
	return out
}

// All returns the specs in Table II order.
func All() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// Names returns the instance names in Table II order.
func Names() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Get returns the spec with the given name.
func Get(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// cache memoizes built graphs per (name, scale, seed) so a harness run over
// many experiments builds each instance once.
var cache sync.Map

// CacheDirEnv names the environment variable that, when set to a writable
// directory, makes Load keep built instances as .scsr files there. A cached
// instance loads via the binary fast path (mmap on raw little-endian
// hosts) instead of regenerating, which turns repeat experiment runs from
// minutes of generator work into milliseconds of open.
const CacheDirEnv = "SYMBREAK_DATASET_CACHE"

// diskCachePath names the on-disk cache entry for (name, scale, seed).
func diskCachePath(dir string, s Spec, scale float64, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s@%g@%d.scsr", s.Name, scale, seed))
}

// Load builds (or returns the cached) graph for a spec. With CacheDirEnv
// set, the disk cache is consulted between the in-process map and the
// generator; cache misses are written back best-effort (a failed write
// never fails the load).
func Load(s Spec, scale float64, seed uint64) *graph.Graph {
	key := fmt.Sprintf("%s|%g|%d", s.Name, scale, seed)
	if g, ok := cache.Load(key); ok {
		return g.(*graph.Graph)
	}
	dir := os.Getenv(CacheDirEnv)
	if dir != "" {
		p := diskCachePath(dir, s, scale, seed)
		if bg, err := graph.OpenBinary(p); err == nil {
			// The mapping (if any) is retained: cached instances live for
			// the run, exactly like generator-built ones.
			cache.Store(key, bg.Graph)
			return bg.Graph
		}
		// Missing or unreadable entry: rebuild (and overwrite) below.
	}
	g := s.Build(scale, seed)
	if dir != "" {
		writeDiskCache(diskCachePath(dir, s, scale, seed), g)
	}
	cache.Store(key, g)
	return g
}

// writeDiskCache persists g atomically (temp file + rename, so concurrent
// experiment processes never observe a half-written entry).
func writeDiskCache(path string, g *graph.Graph) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".scsr-cache-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	tmp.Close()
	if err := graph.WriteBinaryFile(name, g, graph.BinaryOptions{}); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
	}
}

// ClearCache drops all memoized graphs (tests use it to bound memory).
func ClearCache() {
	cache.Range(func(k, v any) bool {
		cache.Delete(k)
		return true
	})
}
