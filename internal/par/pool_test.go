package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPoolSpawnsNoGoroutinesPerCall drives many parallel loops and checks
// the goroutine population stays bounded by the pool size: the whole point
// of the persistent pool is that steady-state calls launch nothing.
func TestPoolSpawnsNoGoroutinesPerCall(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	// Warm the pool.
	For(100000, func(i int) {})
	before := runtime.NumGoroutine()
	for k := 0; k < 500; k++ {
		For(100000, func(i int) {})
	}
	after := runtime.NumGoroutine()
	if after > before+4 {
		t.Fatalf("goroutines grew from %d to %d across 500 pooled loops", before, after)
	}
}

func TestNestedParallelCalls(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	const outer, inner = 4000, 2000
	var total atomic.Int64
	// Outer loop large enough to go parallel; each chunk issues a nested
	// parallel loop. Nested submissions must make progress even when every
	// pool worker is busy with the outer loop (the caller self-executes).
	Range(outer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%1000 == 0 {
				var sub atomic.Int64
				For(inner, func(j int) { sub.Add(1) })
				if sub.Load() != inner {
					t.Errorf("nested loop ran %d of %d iterations", sub.Load(), inner)
				}
			}
			total.Add(1)
		}
	})
	if total.Load() != outer {
		t.Fatalf("outer loop ran %d of %d iterations", total.Load(), outer)
	}
}

func TestDeeplyNestedCalls(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	var leaves atomic.Int64
	Do(3, func(i int) {
		Do(3, func(j int) {
			For(2048, func(k int) {
				if k == 0 {
					leaves.Add(1)
				}
			})
		})
	})
	if leaves.Load() != 9 {
		t.Fatalf("deep nesting executed %d of 9 leaf loops", leaves.Load())
	}
}

func TestSetWorkersMidStream(t *testing.T) {
	defer SetWorkers(0)
	n := 300000
	sum := func() int64 {
		var s atomic.Int64
		For(n, func(i int) { s.Add(int64(i)) })
		return s.Load()
	}
	want := int64(n) * int64(n-1) / 2
	for _, w := range []int{7, 2, 16, 1, 3} {
		SetWorkers(w)
		if got := sum(); got != want {
			t.Fatalf("workers=%d: sum=%d want %d", w, got, want)
		}
		if nc := NumChunks(n); nc < 1 {
			t.Fatalf("workers=%d: NumChunks=%d", w, nc)
		}
	}
}

func TestConcurrentTopLevelLoops(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				var s atomic.Int64
				For(50000, func(i int) { s.Add(1) })
				if s.Load() != 50000 {
					t.Errorf("concurrent loop ran %d iterations", s.Load())
				}
			}
		}()
	}
	wg.Wait()
}

func TestZeroAndTinyLoops(t *testing.T) {
	For(0, func(i int) { t.Error("For(0) ran body") })
	Range(0, func(lo, hi int) { t.Error("Range(0) ran body") })
	RangeIdx(0, func(w, lo, hi int) { t.Error("RangeIdx(0) ran body") })
	Do(0, func(i int) { t.Error("Do(0) ran body") })
	Do(-3, func(i int) { t.Error("Do(-3) ran body") })
	if got := NumChunks(0); got != 0 {
		t.Fatalf("NumChunks(0) = %d", got)
	}
	ran := 0
	For(1, func(i int) { ran++ })
	Do(1, func(i int) { ran++ })
	if ran != 2 {
		t.Fatalf("single-element loops ran %d bodies", ran)
	}
}

func TestAdaptiveGrain(t *testing.T) {
	// The grain scales with n/workers instead of a fixed constant, floors
	// at minAdaptiveGrain, and targets chunksPerWorker chunks per worker.
	if g := grainFor(1<<20, 4); g != (1<<20)/(4*chunksPerWorker) {
		t.Fatalf("grainFor(1M, 4) = %d", g)
	}
	if g := grainFor(2048, 8); g != minAdaptiveGrain {
		t.Fatalf("grainFor(2048, 8) = %d, want floor %d", g, minAdaptiveGrain)
	}
	for _, tc := range []struct{ n, w int }{
		{1024, 2}, {4096, 3}, {1 << 20, 7}, {12345, 16}, {minGrain, 2},
	} {
		nc := numChunksFor(tc.n, tc.w)
		if nc < 1 || nc > chunksPerWorker*tc.w+1 {
			t.Fatalf("numChunksFor(%d, %d) = %d", tc.n, tc.w, nc)
		}
		g := grainFor(tc.n, tc.w)
		if (tc.n+g-1)/g != nc {
			t.Fatalf("n=%d w=%d: grain %d disagrees with %d chunks", tc.n, tc.w, g, nc)
		}
	}
	// Below the sequential cutoff everything is one chunk.
	if nc := numChunksFor(minGrain-1, 8); nc != 1 {
		t.Fatalf("numChunksFor(%d, 8) = %d, want 1", minGrain-1, nc)
	}
}

func TestPanicPropagatesFromPooledChunk(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	mustPanic := func(name string, f func()) {
		defer func() {
			if r := recover(); r == nil {
				t.Fatalf("%s: panic did not propagate", name)
			}
		}()
		f()
	}
	mustPanic("For", func() {
		For(100000, func(i int) {
			if i == 99999 {
				panic("boom")
			}
		})
	})
	// The pool must stay usable after a body panicked.
	var s atomic.Int64
	For(100000, func(i int) { s.Add(1) })
	if s.Load() != 100000 {
		t.Fatalf("pool broken after panic: ran %d iterations", s.Load())
	}
}

func TestDoRunsEveryIndexInParallel(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(4)
	for _, k := range []int{1, 2, 3, 7, 64} {
		hits := make([]int32, k)
		Do(k, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("k=%d: index %d ran %d times", k, i, h)
			}
		}
	}
	// Unlike For, Do must not fall into the sequential cutoff for small k:
	// with workers > 1 it must be able to overlap two coarse tasks. Verify
	// by rendezvous: two tasks that each wait for the other to start.
	var started atomic.Int32
	Do(2, func(i int) {
		started.Add(1)
		for started.Load() < 2 {
			runtime.Gosched()
		}
	})
}

func TestStatsCounters(t *testing.T) {
	defer SetWorkers(0)
	defer EnableStats(false)
	SetWorkers(4)
	EnableStats(true)
	ResetStats()
	For(1<<20, func(i int) {})
	For(10, func(i int) {})
	st := SnapshotStats()
	if st.Tasks != 1 {
		t.Fatalf("Tasks = %d, want 1", st.Tasks)
	}
	if st.SeqLoops != 1 {
		t.Fatalf("SeqLoops = %d, want 1", st.SeqLoops)
	}
	if st.Chunks < 2 {
		t.Fatalf("Chunks = %d, want the pooled loop split in at least 2", st.Chunks)
	}
	if st.Steals > st.Chunks {
		t.Fatalf("Steals = %d exceeds Chunks = %d", st.Steals, st.Chunks)
	}
	EnableStats(false)
	ResetStats()
	For(1<<20, func(i int) {})
	if st := SnapshotStats(); st.Tasks != 0 {
		t.Fatalf("stats collected while disabled: %+v", st)
	}
}

func TestScratchReusesBuffers(t *testing.T) {
	var s Scratch[int64]
	b1 := s.Get(100)
	if len(b1) != 100 {
		t.Fatalf("Get(100) returned len %d", len(b1))
	}
	s.Put(b1)
	b2 := s.Get(50)
	if &b1[0] != &b2[0] {
		t.Fatal("Scratch did not reuse the returned buffer")
	}
	b3 := s.Get(200) // nothing retained is big enough
	if len(b3) != 200 {
		t.Fatalf("Get(200) returned len %d", len(b3))
	}
	s.Put(b2)
	s.Put(b3)
	// Retention is bounded.
	for i := 0; i < 3*scratchMaxFree; i++ {
		s.Put(make([]int64, 8))
	}
	s.mu.Lock()
	free := len(s.free)
	s.mu.Unlock()
	if free > scratchMaxFree {
		t.Fatalf("arena retains %d buffers, cap is %d", free, scratchMaxFree)
	}
	// The typed registry hands back one shared arena per type.
	if scratchFor[int32]() != scratchFor[int32]() {
		t.Fatal("scratchFor returned distinct arenas for one type")
	}
}

func TestFilterTwoPassMatchesSequential(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 3, 8} {
		SetWorkers(w)
		n := 150000
		src := make([]int32, n)
		Iota(src)
		got := Filter(src, func(v int32) bool { return v%7 == 2 })
		want := make([]int32, 0, n/7+1)
		for _, v := range src {
			if v%7 == 2 {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("w=%d: Filter kept %d, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("w=%d: got[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}
