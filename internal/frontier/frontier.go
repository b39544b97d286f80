package frontier

import (
	"repro/internal/par"
)

// Subset is a set of vertices over the universe [0, n): Ligra's
// vertexSubset. It lazily maintains up to two representations — a sorted
// vertex list and a bitset — materializing each at most once, on first
// use. Methods are not safe for concurrent use (the engine orchestrates
// rounds single-threaded; the parallelism is inside each round).
type Subset struct {
	n     int
	size  int
	verts []int32     // ascending; nil until materialized (unless size == 0)
	bits  *par.Bitset // nil until materialized
}

// New returns the subset of [0, n) holding the given vertices, taking
// ownership of the slice. The list must be duplicate-free; if it is not
// already sorted ascending it is sorted in place.
func New(n int, verts []int32) *Subset {
	if !sortedAsc(verts) {
		par.SortInt32(verts)
	}
	return newSorted(n, verts)
}

// newSorted wraps an already-sorted, duplicate-free vertex list.
func newSorted(n int, verts []int32) *Subset {
	return &Subset{n: n, size: len(verts), verts: verts}
}

// Empty returns the empty subset of [0, n).
func Empty(n int) *Subset { return &Subset{n: n} }

// Size reports the number of members.
func (s *Subset) Size() int { return s.size }

// IsEmpty reports whether the subset has no members.
func (s *Subset) IsEmpty() bool { return s.size == 0 }

// Vertices returns the members in ascending order, materializing the
// sparse representation from the bitset if needed. Callers must not
// mutate the returned slice.
func (s *Subset) Vertices() []int32 {
	if s.verts != nil || s.size == 0 {
		return s.verts
	}
	// Chunks cover [0, n) in index order, so the gather is sorted and
	// identical under any worker count.
	s.verts = par.Gather(s.n, func(lo, hi int, out []int32) []int32 {
		for v := lo; v < hi; v++ {
			if s.bits.Test(v) {
				out = append(out, int32(v))
			}
		}
		return out
	})
	return s.verts
}

// Bitset returns the dense representation, materializing it from the
// vertex list if needed. Callers must not mutate the returned bitset.
func (s *Subset) Bitset() *par.Bitset {
	if s.bits == nil {
		s.bits = par.NewBitset(s.n)
		vs := s.verts
		par.For(len(vs), func(i int) {
			s.bits.Set(int(vs[i]))
		})
	}
	return s.bits
}

// Map runs fn over every member in parallel. fn must be safe for
// concurrent calls on distinct vertices.
func Map(s *Subset, fn func(v int32)) {
	vs := s.Vertices()
	par.For(len(vs), func(i int) {
		fn(vs[i])
	})
}

// Filter returns the members satisfying pred as a new subset, preserving
// vertex order. pred runs twice per member (see par.Filter) and must be
// pure and safe for concurrent calls. This is the active-set compaction
// step of the iterative solvers.
func Filter(s *Subset, pred func(v int32) bool) *Subset {
	return newSorted(s.n, par.Filter(s.Vertices(), func(v int32) bool {
		return pred(v)
	}))
}

// Union merges two subsets over the same universe into a new subset
// (duplicates collapse). Used by MPX to add newly started ball centers
// into the surviving frontier each round.
func Union(a, b *Subset) *Subset {
	if a.n != b.n {
		panic("frontier: Union over different universes")
	}
	if a.IsEmpty() {
		return b
	}
	if b.IsEmpty() {
		return a
	}
	av, bv := a.Vertices(), b.Vertices()
	out := make([]int32, 0, len(av)+len(bv))
	i, j := 0, 0
	for i < len(av) && j < len(bv) {
		switch {
		case av[i] < bv[j]:
			out = append(out, av[i])
			i++
		case bv[j] < av[i]:
			out = append(out, bv[j])
			j++
		default:
			out = append(out, av[i])
			i++
			j++
		}
	}
	out = append(out, av[i:]...)
	out = append(out, bv[j:]...)
	return newSorted(a.n, out)
}

// sortedAsc reports whether vs is sorted strictly ascending (duplicates
// count as unsorted so New's contract violation surfaces as a sort, not
// silent double-counting).
func sortedAsc(vs []int32) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			return false
		}
	}
	return true
}
