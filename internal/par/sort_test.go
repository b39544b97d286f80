package par

import (
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSortSliceMatchesStdlib(t *testing.T) {
	sizes := []int{0, 1, 2, 100, seqCutoff * 4, seqCutoff*4 + 1, 250000}
	for _, n := range sizes {
		r := NewRNG(uint64(n) + 7)
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(r.Uint64())
		}
		b := make([]int32, n)
		copy(b, a)
		SortInt32(a)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: mismatch at %d: %d vs %d", n, i, a[i], b[i])
			}
		}
	}
}

func TestSortSliceProperty(t *testing.T) {
	if err := quick.Check(func(raw []int32) bool {
		a := make([]int32, len(raw))
		copy(a, raw)
		SortInt32(a)
		if len(a) != len(raw) {
			return false
		}
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				return false
			}
		}
		// Multiset preserved: compare against stdlib sort of the input.
		b := make([]int32, len(raw))
		copy(b, raw)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortSliceAlreadySortedAndReverse(t *testing.T) {
	n := 100000
	asc := make([]int32, n)
	Iota(asc)
	SortInt32(asc)
	for i := range asc {
		if asc[i] != int32(i) {
			t.Fatal("sorted input corrupted")
		}
	}
	desc := make([]int32, n)
	For(n, func(i int) { desc[i] = int32(n - i) })
	SortInt32(desc)
	for i := range desc {
		if desc[i] != int32(i+1) {
			t.Fatal("reverse input not sorted")
		}
	}
}

func TestSortSliceStructKeys(t *testing.T) {
	type kv struct{ k, v int32 }
	n := 50000
	r := NewRNG(3)
	a := make([]kv, n)
	for i := range a {
		a[i] = kv{int32(r.Intn(1000)), int32(i)}
	}
	SortSlice(a, func(x, y kv) bool {
		if x.k != y.k {
			return x.k < y.k
		}
		return x.v < y.v
	})
	for i := 1; i < n; i++ {
		if a[i-1].k > a[i].k || (a[i-1].k == a[i].k && a[i-1].v > a[i].v) {
			t.Fatalf("out of order at %d", i)
		}
	}
}

func BenchmarkSortSliceParallel(b *testing.B) {
	n := 1 << 21
	src := make([]int32, n)
	r := NewRNG(1)
	for i := range src {
		src[i] = int32(r.Uint64())
	}
	work := make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		SortInt32(work)
	}
}

func BenchmarkSortSliceStdlib(b *testing.B) {
	n := 1 << 21
	src := make([]int32, n)
	r := NewRNG(1)
	for i := range src {
		src[i] = int32(r.Uint64())
	}
	work := make([]int32, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		sort.Slice(work, func(x, y int) bool { return work[x] < work[y] })
	}
}

func TestSortSliceParallelPathForced(t *testing.T) {
	// The single-core host would delegate to the standard library; force
	// multiple workers so the run-split + merge path executes.
	defer SetWorkers(0)
	for _, w := range []int{2, 3, 5, 8} {
		SetWorkers(w)
		for _, n := range []int{4*seqCutoff + 13, 100001} {
			r := NewRNG(uint64(w*n) + 1)
			a := make([]int32, n)
			for i := range a {
				a[i] = int32(r.Uint64())
			}
			b := make([]int32, n)
			copy(b, a)
			SortInt32(a)
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d n=%d: mismatch at %d", w, n, i)
				}
			}
		}
	}
}

func TestParallelPrimitivesUnderForcedWorkers(t *testing.T) {
	// Drive the multi-chunk paths of RangeIdx / ExclusiveSum32 / NumChunks
	// explicitly (the single-core default collapses them to one chunk).
	defer SetWorkers(0)
	SetWorkers(6)
	n := 50000
	nc := NumChunks(n)
	if nc < 2 {
		t.Fatalf("NumChunks = %d with 6 workers", nc)
	}
	seen := make([]int32, nc)
	RangeIdx(n, func(w, lo, hi int) { atomic.AddInt32(&seen[w], 1) })
	for w, s := range seen {
		if s != 1 {
			t.Fatalf("chunk %d used %d times", w, s)
		}
	}
	src := make([]int32, n)
	for i := range src {
		src[i] = int32(i % 11)
	}
	got := ExclusiveSum32(src)
	var acc int64
	for i, v := range src {
		if got[i] != acc {
			t.Fatalf("prefix wrong at %d", i)
		}
		acc += int64(v)
	}
	if got[n] != acc {
		t.Fatal("total wrong")
	}
}
