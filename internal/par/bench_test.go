package par

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Micro-benchmarks isolating the persistent pool against the seed
// spawn-per-call runtime it replaced. The seed implementation is inlined
// here (spawnRangeIdx) so both run in one binary on identical workloads:
// the deltas these report are the per-round tax the iterative solvers used
// to pay on every For/Range/Filter call.

// benchWorkers pins a worker count > 1 so the parallel path is exercised
// even on single-core CI hosts; goroutine spawn/park costs are scheduler
// work and measurable regardless of core count.
const benchWorkers = 4

// spawnRangeIdx is the seed runtime: a fresh goroutine per chunk on every
// call, one static chunk per worker, joined by a per-call WaitGroup.
func spawnRangeIdx(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers == 1 || n < minGrain {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	w := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
		w++
	}
	wg.Wait()
}

// BenchmarkForSpawn measures loop dispatch overhead on a trivial body:
// pooled dispatch vs goroutine spawn per call. n=4096 is the regime the
// iterative solvers live in — many small per-round loops where dispatch
// cost is a real fraction of the loop; n=100k shows overhead amortizing
// away once the body dominates.
func BenchmarkForSpawn(b *testing.B) {
	defer SetWorkers(0)
	SetWorkers(benchWorkers)
	var sink atomic.Int64
	body := func(w, lo, hi int) {
		var acc int64
		for i := lo; i < hi; i++ {
			acc += int64(i)
		}
		sink.Add(acc)
	}
	for _, n := range []int{4096, 100_000} {
		b.Run(fmt.Sprintf("Pooled/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RangeIdx(n, body)
			}
		})
		b.Run(fmt.Sprintf("SpawnPerCall/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spawnRangeIdx(n, benchWorkers, body)
			}
		})
	}
}

// BenchmarkRangeSkewed measures load balancing on a skewed workload (work
// per element grows linearly, like a skewed degree distribution): dynamic
// chunk claiming vs the seed's static one-chunk-per-worker split, where
// the last worker owns almost half the total work.
func BenchmarkRangeSkewed(b *testing.B) {
	defer SetWorkers(0)
	SetWorkers(benchWorkers)
	const n = 30_000
	var sink atomic.Int64
	body := func(w, lo, hi int) {
		var acc int64
		for i := lo; i < hi; i++ {
			for j := 0; j < i/64; j++ {
				acc += int64(j)
			}
		}
		sink.Add(acc)
	}
	b.Run("PooledDynamic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RangeIdx(n, body)
		}
	})
	b.Run("SpawnStaticSplit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spawnRangeIdx(n, benchWorkers, body)
		}
	})
}

// seedExclusiveSum32 is the seed implementation: widen into a temporary
// int64 slice, then scan it with per-call chunk-sum and bounds slices.
func seedExclusiveSum32(src []int32) []int64 {
	n := len(src)
	tmp := make([]int64, n)
	For(n, func(i int) { tmp[i] = int64(src[i]) })
	out := make([]int64, n+1)
	nc := NumChunks(n)
	if nc <= 1 {
		var acc int64
		for i, v := range tmp {
			out[i] = acc
			acc += v
		}
		out[n] = acc
		return out
	}
	sums := make([]int64, nc)
	RangeIdx(n, func(w, lo, hi int) {
		var acc int64
		for i := lo; i < hi; i++ {
			acc += tmp[i]
		}
		sums[w] = acc
	})
	var total int64
	for w := 0; w < nc; w++ {
		s := sums[w]
		sums[w] = total
		total += s
	}
	RangeIdx(n, func(w, lo, hi int) {
		acc := sums[w]
		for i := lo; i < hi; i++ {
			out[i] = acc
			acc += tmp[i]
		}
	})
	out[n] = total
	return out
}

// BenchmarkExclusiveSum32 measures the CSR-offset scan: fused widening
// with arena scratch vs the seed's temporary-copy two-pass version.
func BenchmarkExclusiveSum32(b *testing.B) {
	defer SetWorkers(0)
	SetWorkers(benchWorkers)
	src := make([]int32, 1_000_000)
	For(len(src), func(i int) { src[i] = int32(i % 7) })
	b.Run("Fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := ExclusiveSum32(src)
			_ = out[len(src)]
		}
	})
	b.Run("SeedTempCopy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := seedExclusiveSum32(src)
			_ = out[len(src)]
		}
	})
}

// seedFilter is the seed implementation: per-chunk append growth plus a
// final concatenation.
func seedFilter[T any](src []T, pred func(T) bool) []T {
	n := len(src)
	nc := NumChunks(n)
	if nc == 0 {
		return nil
	}
	bufs := make([][]T, nc)
	RangeIdx(n, func(w, lo, hi int) {
		var out []T
		for i := lo; i < hi; i++ {
			if pred(src[i]) {
				out = append(out, src[i])
			}
		}
		bufs[w] = out
	})
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out := make([]T, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// BenchmarkFilterCompact measures frontier compaction (the per-round path
// of every iterative solver): count-then-copy into one right-sized slice
// vs the seed's append-and-concatenate.
func BenchmarkFilterCompact(b *testing.B) {
	defer SetWorkers(0)
	SetWorkers(benchWorkers)
	src := make([]int32, 500_000)
	Iota(src)
	pred := func(v int32) bool { return v%3 != 0 }
	b.Run("TwoPass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := Filter(src, pred)
			_ = len(out)
		}
	})
	b.Run("SeedAppendConcat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := seedFilter(src, pred)
			_ = len(out)
		}
	})
}

// BenchmarkRangeBackToBack measures what a solver round pays per loop:
// back-to-back Range calls with a one-add body, the shape of a
// virtual-GPU kernel or a frontier pass, pooled at the default worker
// count (GOMAXPROCS) against one worker. The pooled loop is faster only
// when handing chunks to the pool and meeting at the barrier cost less
// than the chunks they move off the caller; under GOMAXPROCS=1 both run
// inline.
func BenchmarkRangeBackToBack(b *testing.B) {
	defer SetWorkers(0)
	data := make([]int32, 90_000)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i]++
		}
	}
	for _, n := range []int{4096, 16_384, 90_000} {
		for _, side := range []struct {
			name    string
			workers int
		}{{"Pooled", 0}, {"OneWorker", 1}} {
			b.Run(fmt.Sprintf("%s/n=%d", side.name, n), func(b *testing.B) {
				SetWorkers(side.workers)
				for i := 0; i < b.N; i++ {
					Range(n, body)
				}
			})
		}
	}
}
