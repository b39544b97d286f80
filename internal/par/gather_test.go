package par

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// gatherCase gathers the indices of [0, n) not ≡ 1 mod 3, counting body
// visits per index, and describes the first way the result is wrong. The
// chunk holding index 0 sleeps briefly, so on a split loop it finishes
// after later chunks: only concatenation by chunk index, not completion,
// keeps the ids in order.
func gatherCase(n int) error {
	visits := make([]int32, n)
	got := Gather(n, func(lo, hi int, out []int32) []int32 {
		if lo == 0 && hi < n {
			time.Sleep(time.Millisecond)
		}
		for i := lo; i < hi; i++ {
			visits[i]++ // plain: an index visited by two chunks races
			if i%3 != 1 {
				out = append(out, int32(i))
			}
		}
		return out
	})
	var want []int32
	for i := 0; i < n; i++ {
		if i%3 != 1 {
			want = append(want, int32(i))
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("n=%d: gathered %d ids, want %d in index order", n, len(got), len(want))
	}
	if len(got) != cap(got) {
		return fmt.Errorf("n=%d: result has len %d, cap %d", n, len(got), cap(got))
	}
	for i, v := range visits {
		if v != 1 {
			return fmt.Errorf("n=%d: body visited index %d %d times", n, i, v)
		}
	}
	return nil
}

// TestGatherOrderAndVisits: Gather returns the selected ids in index
// order in an exact-size slice and runs the body once per index, on
// either side of the sequential cutoff, at several worker counts, and
// nested inside Do.
func TestGatherOrderAndVisits(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 7} {
		SetWorkers(w)
		for _, n := range []int{0, 1, seqCutoff - 1, seqCutoff, 200000} {
			if err := gatherCase(n); err != nil {
				t.Fatalf("w=%d: %v", w, err)
			}
		}
		errs := make([]error, 3)
		Do(3, func(k int) { errs[k] = gatherCase(50000 + k) })
		for _, err := range errs {
			if err != nil {
				t.Fatalf("w=%d nested in Do: %v", w, err)
			}
		}
	}
}

// TestDenseRelabel: ids rank the distinct representatives in value order,
// over a universe larger than the input, with repeats, and for no input;
// the large case repeats each value across many chunks, which the race
// detector checks the presence marks against.
func TestDenseRelabel(t *testing.T) {
	defer SetWorkers(0)
	if ids, k := DenseRelabel(nil, 10); len(ids) != 0 || k != 0 {
		t.Fatalf("empty input: ids %v, count %d", ids, k)
	}
	ids, k := DenseRelabel([]int32{90, 3, 3, 57, 90, 0, 57}, 100)
	if want := []int32{3, 1, 1, 2, 3, 0, 2}; !slices.Equal(ids, want) || k != 4 {
		t.Fatalf("ids %v count %d, want %v count 4", ids, k, want)
	}
	const n, universe = 300000, 1 << 20
	rep := make([]int32, n)
	for i := range rep {
		rep[i] = int32(i%97) * 10007
	}
	distinct := slices.Clone(rep)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	for _, w := range []int{1, 2, 7} {
		SetWorkers(w)
		ids, k := DenseRelabel(rep, universe)
		if k != len(distinct) {
			t.Fatalf("w=%d: count %d, want %d", w, k, len(distinct))
		}
		for i, r := range rep {
			if want, _ := slices.BinarySearch(distinct, r); ids[i] != int32(want) {
				t.Fatalf("w=%d: ids[%d] = %d, want %d", w, i, ids[i], want)
			}
		}
	}
}
