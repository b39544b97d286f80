package par

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1023, 1024, 1025, 100000} {
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForHonorsSmallWorkerCounts(t *testing.T) {
	defer SetWorkers(0)
	n := 50000
	for _, w := range []int{1, 2, 3, 7} {
		SetWorkers(w)
		var total int64
		For(n, func(i int) { atomic.AddInt64(&total, int64(i)) })
		want := int64(n) * int64(n-1) / 2
		if total != want {
			t.Fatalf("workers=%d: sum=%d want %d", w, total, want)
		}
	}
}

func TestRangeChunksCoverExactly(t *testing.T) {
	for _, n := range []int{1, 1024, 5000, 99999} {
		covered := make([]int32, n)
		Range(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

func TestRangeIdxWorkerIndicesDistinct(t *testing.T) {
	n := 200000
	nc := NumChunks(n)
	seen := make([]int32, nc)
	RangeIdx(n, func(w, lo, hi int) {
		if w < 0 || w >= nc {
			t.Errorf("worker index %d out of range [0,%d)", w, nc)
			return
		}
		atomic.AddInt32(&seen[w], 1)
	})
	for w, s := range seen {
		if s != 1 {
			t.Fatalf("worker slot %d used %d times", w, s)
		}
	}
}

func TestSetWorkersRoundTrip(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() <= 0 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
	SetWorkers(-5)
	if Workers() <= 0 {
		t.Fatalf("Workers() = %d after SetWorkers(-5)", Workers())
	}
}

func TestReduceMatchesSequential(t *testing.T) {
	n := 123457
	got := Reduce(n, 0, func(i int) int64 { return int64(i % 17) },
		func(a, b int64) int64 { return a + b })
	var want int64
	for i := 0; i < n; i++ {
		want += int64(i % 17)
	}
	if got != want {
		t.Fatalf("Reduce = %d, want %d", got, want)
	}
}

func TestSumAndCount(t *testing.T) {
	n := 4096
	if got := Sum(n, func(i int) int64 { return 2 }); got != int64(2*n) {
		t.Fatalf("Sum = %d", got)
	}
	if got := Count(n, func(i int) bool { return i%4 == 0 }); got != int64(n/4) {
		t.Fatalf("Count = %d", got)
	}
	if got := Sum(0, func(i int) int64 { return 1 }); got != 0 {
		t.Fatalf("Sum over empty range = %d", got)
	}
}

func TestMaxIndexed(t *testing.T) {
	vals := []int32{3, 9, 1, 9, 0}
	got := MaxIndexed(len(vals), int32(-1), func(i int) int32 { return vals[i] })
	if got != 9 {
		t.Fatalf("MaxIndexed = %d", got)
	}
	if got := MaxIndexed(0, int32(-1), func(i int) int32 { return 0 }); got != -1 {
		t.Fatalf("MaxIndexed empty = %d, want identity", got)
	}
}

func TestExclusiveSumMatchesSequential(t *testing.T) {
	check := func(src []int32) bool {
		got := ExclusiveSum32(src)
		if len(got) != len(src)+1 {
			return false
		}
		var acc int64
		for i, v := range src {
			if got[i] != acc {
				return false
			}
			acc += int64(v)
		}
		return got[len(src)] == acc
	}
	// Edge cases.
	for _, src := range [][]int32{nil, {}, {5}, {0, 0, 0}, {1, 2, 3, 4}} {
		if !check(src) {
			t.Fatalf("ExclusiveSum32 wrong for %v", src)
		}
	}
	// Large parallel case, with a total past int32.
	big := make([]int32, 300000)
	for i := range big {
		big[i] = int32(i%7) << 16
	}
	if !check(big) {
		t.Fatal("ExclusiveSum32 wrong for large input")
	}
	// Property test over random small inputs.
	if err := quick.Check(func(raw []uint16) bool {
		src := make([]int32, len(raw))
		for i, v := range raw {
			src[i] = int32(v)
		}
		return check(src)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveSum32(t *testing.T) {
	src := []int32{2, 0, 5, 1}
	got := ExclusiveSum32(src)
	want := []int64{0, 2, 2, 7, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExclusiveSum32 = %v, want %v", got, want)
		}
	}
}

func TestFillIotaCopy(t *testing.T) {
	n := 100000
	a := make([]int32, n)
	Fill(a, 7)
	for i, v := range a {
		if v != 7 {
			t.Fatalf("Fill: a[%d]=%d", i, v)
		}
	}
	Iota(a)
	for i, v := range a {
		if v != int32(i) {
			t.Fatalf("Iota: a[%d]=%d", i, v)
		}
	}
	b := make([]int32, n)
	Copy(b, a)
	for i := range b {
		if b[i] != a[i] {
			t.Fatalf("Copy mismatch at %d", i)
		}
	}
}

func TestCopyPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy(make([]int, 3), make([]int, 4))
}

func TestFilterPreservesOrder(t *testing.T) {
	n := 200000
	src := make([]int32, n)
	Iota(src)
	got := Filter(src, func(v int32) bool { return v%3 == 0 })
	if len(got) != (n+2)/3 {
		t.Fatalf("Filter kept %d elements", len(got))
	}
	for i, v := range got {
		if v != int32(i*3) {
			t.Fatalf("got[%d] = %d, order not preserved", i, v)
		}
	}
	if out := Filter([]int32{}, func(int32) bool { return true }); len(out) != 0 {
		t.Fatal("Filter of empty slice not empty")
	}
	if out := Filter(src, func(int32) bool { return false }); len(out) != 0 {
		t.Fatal("Filter with false pred not empty")
	}
}

// TestMaxChunksBoundsEveryShorterLoop: MaxChunks(n) is at least
// NumChunks(k) for every k <= n, although NumChunks is not monotone.
func TestMaxChunksBoundsEveryShorterLoop(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 3, 7, 16, 100} {
		SetWorkers(w)
		peak := 0 // max NumChunks(j) over j <= k
		for k := 0; k <= 200000; k++ {
			peak = max(peak, NumChunks(k))
			if peak > MaxChunks(k) {
				t.Fatalf("w=%d: a loop of at most %d elements splits into %d chunks, MaxChunks says %d", w, k, peak, MaxChunks(k))
			}
		}
	}
}

func TestNumChunksBounds(t *testing.T) {
	if NumChunks(0) != 0 {
		t.Fatal("NumChunks(0) != 0")
	}
	if NumChunks(1) != 1 {
		t.Fatal("NumChunks(1) != 1")
	}
	n := 1 << 20
	nc := NumChunks(n)
	if nc < 1 || nc > chunksPerWorker*Workers() {
		t.Fatalf("NumChunks(%d) = %d with %d workers", n, nc, Workers())
	}
	// The dispatcher and NumChunks must agree exactly: per-chunk scratch
	// sized with NumChunks is indexed by RangeIdx's chunk argument.
	for _, w := range []int{1, 2, 3, 7, 16} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 1023, 1024, 4096, 99999, 1 << 20} {
			want := NumChunks(n)
			var used int32
			RangeIdx(n, func(c, lo, hi int) {
				atomic.AddInt32(&used, 1)
				if c < 0 || c >= want {
					t.Errorf("w=%d n=%d: chunk index %d outside [0,%d)", w, n, c, want)
				}
			})
			if int(used) != want {
				t.Fatalf("w=%d n=%d: NumChunks=%d but dispatcher made %d chunks", w, n, want, used)
			}
		}
	}
	SetWorkers(0)
}

func TestForErr(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 3, 7} {
		SetWorkers(w)
		// No failures.
		var hits int32
		if err := ForErr(1000, func(i int) error {
			atomic.AddInt32(&hits, 1)
			return nil
		}); err != nil {
			t.Fatalf("w=%d: unexpected error %v", w, err)
		}
		if hits != 1000 {
			t.Fatalf("w=%d: fn ran %d times, want 1000", w, hits)
		}
		// Several failing indices: the lowest one must win under every
		// worker count, however chunks get scheduled.
		for trial := 0; trial < 20; trial++ {
			err := ForErr(100_000, func(i int) error {
				if i == 777 || i == 40_000 || i == 99_999 {
					return fmt.Errorf("fail@%d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail@777" {
				t.Fatalf("w=%d: got %v, want fail@777", w, err)
			}
		}
		// Empty and tiny loops.
		if err := ForErr(0, func(int) error { return fmt.Errorf("never") }); err != nil {
			t.Fatalf("w=%d: empty loop returned %v", w, err)
		}
		if err := ForErr(1, func(int) error { return fmt.Errorf("one") }); err == nil {
			t.Fatalf("w=%d: single-index error lost", w)
		}
		// Error at index 0: the very first chunk fails, and index 0 must
		// beat every other failing index in the loop.
		err := ForErr(100_000, func(i int) error {
			if i == 0 || i == 50_000 {
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail@0" {
			t.Fatalf("w=%d: got %v, want fail@0", w, err)
		}
	}
}

// TestForErrPanicPropagates pins the pool's panic contract for ForErr:
// a panic in the body is re-raised on the calling goroutine, under both
// the sequential (single-chunk) and parallel paths.
func TestForErrPanicPropagates(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("w=%d: panic did not propagate", w)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("w=%d: recovered %v, want \"boom\"", w, r)
				}
			}()
			ForErr(100_000, func(i int) error {
				if i == 70_000 {
					panic("boom")
				}
				return nil
			})
		}()
	}
}
