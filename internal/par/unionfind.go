package par

import "sync/atomic"

// UnionFind is a lock-free disjoint-set forest over [0, n): Union links
// roots with a compare-and-swap on the parent pointer and Find halves the
// path it climbs, so both are safe for concurrent use. Union always links
// the larger root under the smaller, so every set's root is its smallest
// element and the roots left by a parallel pass do not depend on the
// schedule. Without ranks the tree depth is not bounded in theory, but
// path halving keeps it shallow on the graphs here.
type UnionFind struct {
	parent []int32
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n)}
	Iota(uf.parent)
	return uf
}

// Find returns the root of x's set, the set's smallest element once no
// Union is running.
func (uf *UnionFind) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&uf.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&uf.parent[p])
		if gp != p {
			// Path halving; losing the race is harmless.
			atomic.CompareAndSwapInt32(&uf.parent[x], p, gp)
		}
		x = p
	}
}

// Union merges the sets of a and b.
func (uf *UnionFind) Union(a, b int32) {
	for {
		ra, rb := uf.Find(a), uf.Find(b)
		if ra == rb {
			return
		}
		if ra < rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&uf.parent[ra], ra, rb) {
			return
		}
	}
}
