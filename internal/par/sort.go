package par

import (
	"cmp"
	"math/bits"
	"slices"
)

// SortSlice sorts data by cmp, a three-way comparison as in
// slices.SortFunc, using a parallel merge sort: the slice is split into
// worker-count runs sorted concurrently with the standard-library pdqsort,
// then merged pairwise in parallel rounds. Stable ordering is not
// guaranteed (callers needing stability sort on a unique key). Used by the
// graph builders, where edge-list sorting dominates construction time on
// multi-million-edge instances.
func SortSlice[T any](data []T, cmp func(a, b T) int) {
	mergeSort(data, func(run []T) { slices.SortFunc(run, cmp) }, cmp)
}

// SortInt32 sorts an int32 slice in parallel: the same runs and merge as
// SortSlice, with each run sorted by the ordered pdqsort, which compares
// without a function call.
func SortInt32(data []int32) {
	mergeSort(data, slices.Sort[[]int32], cmp.Compare[int32])
}

// mergeSort sorts data with sortRun, on the whole slice when it is small
// or one worker runs, otherwise on one run per worker, merging the sorted
// runs pairwise by cmp.
func mergeSort[T any](data []T, sortRun func([]T), cmp func(a, b T) int) {
	n := len(data)
	workers := Workers()
	if workers == 1 || n < 4*seqCutoff {
		sortRun(data)
		return
	}
	// Split into runs. Each run is coarse work, so the runs go through Do
	// (one chunk per run) rather than a grained loop.
	runs := workers
	if runs > n {
		runs = n
	}
	bounds := make([]int, runs+1)
	for i := 0; i <= runs; i++ {
		bounds[i] = i * n / runs
	}
	Do(runs, func(r int) {
		sortRun(data[bounds[r]:bounds[r+1]])
	})
	// Merge rounds: pair up adjacent runs until one remains.
	buf := make([]T, n)
	src, dst := data, buf
	for len(bounds) > 2 {
		nb := make([]int, 0, len(bounds)/2+2)
		nb = append(nb, 0)
		pairs := (len(bounds) - 1) / 2
		Do(pairs, func(p int) {
			lo, mid, hi := bounds[2*p], bounds[2*p+1], bounds[2*p+2]
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], cmp)
		})
		for p := 0; p < pairs; p++ {
			nb = append(nb, bounds[2*p+2])
		}
		// A trailing odd run copies through.
		if (len(bounds)-1)%2 == 1 {
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst[lo:hi], src[lo:hi])
			nb = append(nb, hi)
		}
		bounds = nb
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}

// mergeInto merges sorted a and b into out (len(out) == len(a)+len(b)).
func mergeInto[T any](out, a, b []T, cmp func(x, y T) int) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmp(b[j], a[i]) < 0 {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// radixBits is the digit width of OrderByKey's passes.
const radixBits = 8

// OrderByKey returns the indices of keys ordered by key, ties broken by
// index: the permutation a stable sort of keys would apply. Keys must be
// non-negative. It makes least-significant-digit radix passes over 8-bit
// digits, as many as the largest key needs (none when every key is 0, at
// most four), each a count per chunk and a stable scatter in chunk order.
// So it costs O(n) time and memory per pass whatever the key range: a
// counting array over the keys' values would not. The order does not
// depend on the worker count.
func OrderByKey(keys []int32) []int32 {
	n := len(keys)
	// The OR of the keys has the largest key's bit length, and the sign
	// bit of any negative one.
	all := Reduce(n, 0, func(i int) int32 { return keys[i] }, func(a, b int32) int32 { return a | b })
	if all < 0 {
		panic("par: OrderByKey on a negative key")
	}
	order := make([]int32, n)
	passes := (bits.Len32(uint32(all)) + radixBits - 1) / radixBits
	if passes == 0 {
		Iota(order)
		return order
	}
	const radix = 1 << radixBits
	workers := Workers()
	nc := numChunksFor(n, workers)
	next := make([]int, nc*radix) // next[c*radix+d]: chunk c's next slot for digit d
	// Passes alternate between two buffers; the last one writes order.
	bufs := [2][]int32{order, nil}
	if passes > 1 {
		bufs[1] = make([]int32, n)
		if passes%2 == 0 {
			bufs[0], bufs[1] = bufs[1], bufs[0]
		}
	}
	var src []int32 // nil: the identity, read by the first pass
	for p := 0; p < passes; p++ {
		shift := uint(p * radixBits)
		dst := bufs[p%2]
		runN(n, workers, func(c, lo, hi int) {
			cnt := next[c*radix : (c+1)*radix]
			clear(cnt)
			for i := lo; i < hi; i++ {
				v := int32(i)
				if src != nil {
					v = src[i]
				}
				cnt[keys[v]>>shift&(radix-1)]++
			}
		})
		// Digit-major, chunk-minor offsets keep equal digits in index
		// order, which makes each pass stable.
		pos := 0
		for d := 0; d < radix; d++ {
			for c := 0; c < nc; c++ {
				k := next[c*radix+d]
				next[c*radix+d] = pos
				pos += k
			}
		}
		runN(n, workers, func(c, lo, hi int) {
			slot := next[c*radix : (c+1)*radix]
			for i := lo; i < hi; i++ {
				v := int32(i)
				if src != nil {
					v = src[i]
				}
				d := keys[v] >> shift & (radix - 1)
				dst[slot[d]] = v
				slot[d]++
			}
		})
		src = dst
	}
	return order
}
