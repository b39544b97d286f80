package par

import "slices"

// SortSlice sorts data by less using a parallel merge sort: the slice is
// split into worker-count runs sorted concurrently with the (non-reflective)
// standard-library pdqsort, then merged pairwise in parallel rounds. Stable
// ordering is not guaranteed (callers needing stability sort on a unique
// key). Used by the graph builder, where edge-list sorting dominates
// construction time on multi-million-edge instances.
func SortSlice[T any](data []T, less func(a, b T) bool) {
	n := len(data)
	workers := Workers()
	cmp := func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	}
	if workers == 1 || n < 4*seqCutoff {
		slices.SortFunc(data, cmp)
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
		slices.SortFunc(data[bounds[r]:bounds[r+1]], cmp)
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
			mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi], less)
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
func mergeInto[T any](out, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
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

// SortInt32 sorts an int32 slice in parallel.
func SortInt32(data []int32) {
	SortSlice(data, func(a, b int32) bool { return a < b })
}
