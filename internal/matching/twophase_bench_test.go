package matching

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/dataset"
	"repro/internal/decomp"
)

// BenchmarkMMTwoPhase times MM-Bridge, MM-Rand, MM-Degk and MM-MPX, the
// four solvers that share twoPhase, on each paper-grid instance at scale
// 1.0 (seed 1), with GM on the CPU and LMAX on the GPU, one sub-benchmark
// per instance, architecture and strategy. RAND takes the instance's
// partition count for the architecture, as the grids do. `make
// bench-decomp` runs it with -benchmem, beside BenchmarkDecompPhases.
func BenchmarkMMTwoPhase(b *testing.B) {
	for _, name := range []string{
		"lp1", "coAuthorsCiteseer", "germany-osm", "kron-g500-logn20", "rgg-n-2-23-s0", "webbase-1M",
	} {
		spec, ok := dataset.Get(name)
		if !ok {
			b.Fatalf("no dataset %s", name)
		}
		g := dataset.Load(spec, 1.0, 1)
		for _, arch := range []struct {
			name  string
			mm    Algorithm
			parts int
		}{
			{"CPU", GMSolver(), spec.MMRandPartsCPU},
			{"GPU", LMAXSolver(bsp.New()), spec.MMRandPartsGPU},
		} {
			mm := arch.mm
			for _, s := range []struct {
				name string
				run  func()
			}{
				{"bridge", func() { MMBridge(g, mm, nil) }},
				{"rand", func() { MMRand(g, arch.parts, 1, mm, nil) }},
				{"degk", func() { MMDegk(g, 2, mm, nil) }},
				{"mpx", func() { MMMPX(g, decomp.DefaultMPXBeta, 1, mm, nil) }},
			} {
				b.Run(name+"/"+arch.name+"/"+s.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s.run()
					}
				})
			}
		}
	}
}
