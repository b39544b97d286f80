// Package par provides the shared-memory parallel runtime used by every
// algorithm in this repository: chunked parallel loops, parallel reductions,
// a parallel prefix sum, ordered gathers and filters, a concurrent
// union-find and dense relabelling, a concurrent bitset, and a
// deterministic random number generator.
//
// The package plays the role of the paper's OpenMP-style 80-thread CPU
// runtime. Loops run on a persistent pool of worker goroutines (see pool.go):
// a call splits the index space into adaptively sized chunks that the caller
// and parked pool workers claim dynamically, so no goroutines are spawned and
// no scheduler teardown is paid per call. The number of workers defaults to
// runtime.GOMAXPROCS(0) and can be overridden process-wide with SetWorkers
// (for scaling experiments); there are no per-call worker counts.
//
// Workers help on a best-effort basis: a wake-up is dropped when the
// pool's queue is full, and the caller then runs every index itself. A
// loop body must therefore never wait for another index of the same loop.
//
// Each call allocates its own temporaries, such as one slot per chunk, and
// nothing in the package keeps a buffer for reuse between calls.
//
// Chunk boundaries depend only on the loop length and the worker setting,
// never on scheduling, so per-chunk scratch indexed by RangeIdx's chunk index
// is deterministic, and algorithms built from associative per-chunk
// combinations produce identical results under any worker count.
package par

import (
	"runtime"
	"sync/atomic"
)

// defaultWorkers holds the worker count used by the loop primitives when no
// explicit count is given. Zero means "use runtime.GOMAXPROCS(0)".
var defaultWorkers int64

// SetWorkers sets the default worker count for all loop primitives in this
// package. n <= 0 restores the default of runtime.GOMAXPROCS(0). Changing
// the count between calls is safe at any point; changing it while a loop
// using the default is being dispatched leaves that loop on whichever
// setting it observed.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	atomic.StoreInt64(&defaultWorkers, int64(n))
}

// Workers reports the worker count the loop primitives will use.
func Workers() int {
	if n := atomic.LoadInt64(&defaultWorkers); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) in parallel.
func For(n int, fn func(i int)) {
	runN(n, Workers(), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Range splits [0, n) into contiguous chunks and runs fn(lo, hi) on each
// chunk in parallel. It is the workhorse primitive: algorithms that keep
// per-chunk scratch state use Range directly to amortize it.
func Range(n int, fn func(lo, hi int)) {
	runN(n, Workers(), func(_, lo, hi int) {
		fn(lo, hi)
	})
}

// RangeIdx is Range but also hands each chunk its chunk index in
// [0, NumChunks(n)), each index used exactly once, so callers can index
// preallocated per-chunk scratch.
func RangeIdx(n int, fn func(worker, lo, hi int)) {
	runN(n, Workers(), fn)
}

// NumChunks reports how many chunks RangeIdx will create for n elements
// under the current worker setting. Callers size per-chunk scratch with it.
func NumChunks(n int) int {
	return numChunksFor(n, Workers())
}

// MaxChunks bounds NumChunks(k) for every k in [0, n] under the current
// worker setting, so a loop whose length only shrinks (an active list
// compacted each round) can size its per-chunk scratch once. The chunk
// count is not monotone in k; the bound holds because a split loop's
// chunks hold at least minAdaptiveGrain elements and number at most
// chunksPerWorker per worker plus the rounding of the last one.
func MaxChunks(n int) int {
	workers := Workers()
	if n <= 0 {
		return 0
	}
	if workers <= 1 || n < seqCutoff {
		return 1
	}
	byGrain := (n + minAdaptiveGrain - 1) / minAdaptiveGrain
	byWorkers := chunksPerWorker*workers + (chunksPerWorker*workers+minAdaptiveGrain-2)/minAdaptiveGrain
	return min(byGrain, byWorkers)
}

// Reduce computes a parallel reduction of fn over [0, n) combining partial
// results with combine, starting from identity. combine must be associative.
// Partial results combine in chunk-index order, so the result is identical
// under any worker count.
func Reduce[T any](n int, identity T, fn func(i int) T, combine func(a, b T) T) T {
	workers := Workers()
	nc := numChunksFor(n, workers)
	if nc == 0 {
		return identity
	}
	if nc == 1 {
		acc := identity
		for i := 0; i < n; i++ {
			acc = combine(acc, fn(i))
		}
		return acc
	}
	parts := make([]T, nc)
	runN(n, workers, func(c, lo, hi int) {
		acc := identity
		for i := lo; i < hi; i++ {
			acc = combine(acc, fn(i))
		}
		parts[c] = acc
	})
	acc := identity
	for _, p := range parts {
		acc = combine(acc, p)
	}
	return acc
}

// Sum computes the parallel sum of fn(i) over [0, n).
func Sum(n int, fn func(i int) int64) int64 {
	return Reduce(n, 0, fn, func(a, b int64) int64 { return a + b })
}

// Count reports how many i in [0, n) satisfy pred.
func Count(n int, pred func(i int) bool) int64 {
	return Sum(n, func(i int) int64 {
		if pred(i) {
			return 1
		}
		return 0
	})
}

// ForErr runs fn(i) for every i in [0, n) in parallel and returns the
// error from the globally lowest failing index, or nil if every call
// succeeded. Each chunk stops at its own first error, and chunks above an
// already-failed chunk are skipped entirely, so fn may not be invoked for
// every index after a failure — but every index below the lowest failing
// one is always visited, which makes the returned error deterministic
// under any worker count. Intended for parallel decode/validate loops
// where the first structural error is the interesting one.
func ForErr(n int, fn func(i int) error) error {
	workers := Workers()
	nc := numChunksFor(n, workers)
	if nc == 0 {
		return nil
	}
	if nc == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, nc)
	failed := atomic.Int64{}
	failed.Store(int64(nc))
	runN(n, workers, func(c, lo, hi int) {
		if int64(c) > failed.Load() {
			return // a lower chunk already failed; this error can't win
		}
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				errs[c] = err
				for {
					cur := failed.Load()
					if int64(c) >= cur || failed.CompareAndSwap(cur, int64(c)) {
						return
					}
				}
			}
		}
	})
	if f := failed.Load(); f < int64(nc) {
		return errs[f]
	}
	return nil
}

// MaxIndexed returns the maximum of fn(i) over [0, n), or identity when
// n == 0.
func MaxIndexed[T int | int32 | int64 | float64](n int, identity T, fn func(i int) T) T {
	return Reduce(n, identity, fn, func(a, b T) T {
		if a > b {
			return a
		}
		return b
	})
}

// ExclusiveSum32 computes the exclusive prefix sum of src into a new slice
// of length len(src)+1; the final element is the total. Counts are int32
// and offsets int64, the shape of CSR offsets built from degree arrays;
// the widening happens inside the scan passes, so no int64 copy of src is
// made. The scan is parallel: per-chunk sums, a sequential pass over the
// (few) chunk totals, then a parallel fill. Besides the returned slice it
// allocates one int64 per chunk.
//
//lint:hotpath
func ExclusiveSum32(src []int32) []int64 {
	n := len(src)
	out := make([]int64, n+1)
	if n == 0 {
		return out
	}
	workers := Workers()
	nc := numChunksFor(n, workers)
	if nc == 1 {
		var acc int64
		for i, v := range src {
			out[i] = acc
			acc += int64(v)
		}
		out[n] = acc
		return out
	}
	sums := make([]int64, nc)
	runN(n, workers, func(c, lo, hi int) {
		var acc int64
		for i := lo; i < hi; i++ {
			acc += int64(src[i])
		}
		sums[c] = acc
	})
	var total int64
	for c := 0; c < nc; c++ {
		s := sums[c]
		sums[c] = total
		total += s
	}
	runN(n, workers, func(c, lo, hi int) {
		acc := sums[c]
		for i := lo; i < hi; i++ {
			out[i] = acc
			acc += int64(src[i])
		}
	})
	out[n] = total
	return out
}

// Fill sets dst[i] = v for all i in parallel.
func Fill[T any](dst []T, v T) {
	Range(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = v
		}
	})
}

// Iota sets dst[i] = int32(i) for all i in parallel.
func Iota(dst []int32) {
	Range(len(dst), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = int32(i)
		}
	})
}

// Copy copies src into dst in parallel. The slices must have equal length.
func Copy[T any](dst, src []T) {
	if len(dst) != len(src) {
		panic("par: Copy length mismatch")
	}
	Range(len(src), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Filter returns the elements of src satisfying pred, preserving order.
// It counts matches per chunk, sizes the output exactly, then copies —
// no per-chunk growth or final concatenation. pred therefore runs twice
// per element and must be pure (same answer both times) and safe for
// concurrent calls; every use in this repository is a flag lookup. Used
// for frontier/active-set compaction in the iterative solvers.
//
//lint:hotpath
func Filter(src []int32, pred func(int32) bool) []int32 {
	n := len(src)
	if n == 0 {
		return nil
	}
	workers := Workers()
	nc := numChunksFor(n, workers)
	if nc == 1 {
		total := 0
		for i := 0; i < n; i++ {
			if pred(src[i]) {
				total++
			}
		}
		out := make([]int32, 0, total)
		for i := 0; i < n; i++ {
			if pred(src[i]) {
				out = append(out, src[i])
			}
		}
		return out
	}
	counts := make([]int64, nc)
	runN(n, workers, func(c, lo, hi int) {
		var cnt int64
		for i := lo; i < hi; i++ {
			if pred(src[i]) {
				cnt++
			}
		}
		counts[c] = cnt
	})
	var total int64
	for c := 0; c < nc; c++ {
		s := counts[c]
		counts[c] = total
		total += s
	}
	out := make([]int32, total)
	runN(n, workers, func(c, lo, hi int) {
		p := counts[c]
		for i := lo; i < hi; i++ {
			if pred(src[i]) {
				out[p] = src[i]
				p++
			}
		}
	})
	return out
}

// Gather runs body once on each chunk [lo, hi) of [0, n), in parallel,
// and returns the chunk outputs concatenated in chunk order, in one slice
// of exactly their total length. body appends the ids it selects from its
// range to out (empty on entry) and returns it. Every index lies in
// exactly one chunk and each chunk runs once, so body may have side
// effects on the indices it visits. A body that emits ids in increasing
// order yields a sorted result, identical under any worker count.
//
// Gather is the one-pass counterpart of Filter: it suits selections whose
// test is costly or has side effects, at the price of per-chunk buffers.
//
//lint:hotpath
func Gather(n int, body func(lo, hi int, out []int32) []int32) []int32 {
	workers := Workers()
	nc := numChunksFor(n, workers)
	bufs := make([][]int32, nc)
	runN(n, workers, func(c, lo, hi int) {
		bufs[c] = body(lo, hi, nil)
	})
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	out := make([]int32, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

// DenseRelabel maps representatives to dense ids: for rep[i] in
// [0, universe) it returns ids with ids[i] the rank of rep[i] among the
// distinct values of rep, so ids run over [0, count) ordered by
// representative, and count. Component labels, ball centers and block
// roots all become dense ids this way.
func DenseRelabel(rep []int32, universe int) (ids []int32, count int) {
	// Many indices share a representative, so presence is marked with
	// atomic stores; the load skips the store once a value is marked.
	present := make([]int32, universe)
	For(len(rep), func(i int) {
		if p := &present[rep[i]]; atomic.LoadInt32(p) == 0 {
			atomic.StoreInt32(p, 1)
		}
	})
	rank := ExclusiveSum32(present)
	ids = make([]int32, len(rep))
	For(len(rep), func(i int) {
		ids[i] = int32(rank[rep[i]])
	})
	return ids, int(rank[universe])
}
