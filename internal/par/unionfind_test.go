package par

import "testing"

// TestUnionFindRootIsSmallest: after concurrent unions of random pairs,
// Find returns each set's smallest element, checked against a serial
// min-label fixpoint, at several worker counts.
func TestUnionFindRootIsSmallest(t *testing.T) {
	defer SetWorkers(0)
	const n, m = 20000, 15000
	r := NewRNG(11)
	pairs := make([][2]int32, m)
	for i := range pairs {
		pairs[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(n))}
	}
	want := make([]int32, n)
	Iota(want)
	for changed := true; changed; {
		changed = false
		for _, p := range pairs {
			lo := min(want[p[0]], want[p[1]])
			for _, v := range p {
				if want[v] != lo {
					want[v], changed = lo, true
				}
			}
		}
	}
	for _, w := range []int{1, 2, 7} {
		SetWorkers(w)
		uf := NewUnionFind(n)
		For(m, func(i int) { uf.Union(pairs[i][0], pairs[i][1]) })
		for v := int32(0); v < n; v++ {
			if got := uf.Find(v); got != want[v] {
				t.Fatalf("w=%d: Find(%d) = %d, want %d", w, v, got, want[v])
			}
		}
	}
}
