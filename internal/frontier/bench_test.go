package frontier

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
)

// benchGraphBFS builds a connected-ish random graph sized so a BFS from
// vertex 0 goes through both sparse and dense rounds.
func benchGraphBFS(b *testing.B) *graph.Graph {
	b.Helper()
	const n, m = 100_000, 400_000
	r := par.NewRNG(42)
	bld := graph.NewBuilder(n)
	// A Hamiltonian-ish backbone keeps the graph connected so every round
	// count is comparable across divisors.
	for i := 0; i < n-1; i++ {
		bld.AddEdge(int32(i), int32(i+1))
	}
	for i := 0; i < m-n+1; i++ {
		bld.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return bld.Build()
}

func runBFS(g *graph.Graph, eng *Engine) int {
	n := g.NumVertices()
	visited := par.NewBitset(n)
	visited.Set(0)
	f := New(n, []int32{0})
	reached := 1
	for !f.IsEmpty() {
		f = eng.EdgeMap(g, f, Ops{
			Cond: func(v int32) bool { return !visited.Test(int(v)) },
			Update: func(u, v int32) bool {
				return visited.TestAndSet(int(v))
			},
		})
		reached += f.Size()
	}
	return reached
}

// BenchmarkEdgeMapBFSDiv sweeps the direction-switch divisor over a full
// BFS: div=push is pure top-down, the rest pull once the frontier exceeds
// n/div. The sweep justifies DefaultPullDiv (see EXPERIMENTS.md § Frontier
// threshold sweep).
func BenchmarkEdgeMapBFSDiv(b *testing.B) {
	g := benchGraphBFS(b)
	divs := []int{NoPull, 2, 4, 8, 16, 32, 64, 128}
	for _, div := range divs {
		name := fmt.Sprintf("div=%d", div)
		if div == NoPull {
			name = "div=push"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := runBFS(g, &Engine{PullDiv: div}); got != g.NumVertices() {
					b.Fatalf("reached %d of %d", got, g.NumVertices())
				}
			}
		})
	}
}

// BenchmarkSubsetConvert measures the two lazy conversions on a half-full
// subset: dense→sparse (Vertices) and sparse→dense (Bitset).
func BenchmarkSubsetConvert(b *testing.B) {
	const n = 1 << 20
	bits := par.NewBitset(n)
	for v := 0; v < n; v += 2 {
		bits.Set(v)
	}
	b.Run("dense-to-sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := &Subset{n: n, size: n / 2, bits: bits}
			if len(s.Vertices()) != n/2 {
				b.Fatal("wrong size")
			}
		}
	})
	verts := make([]int32, n/2)
	for i := range verts {
		verts[i] = int32(2 * i)
	}
	b.Run("sparse-to-dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := newSorted(n, verts)
			if !s.Bitset().Test(2 * (n/2 - 1)) {
				b.Fatal("wrong count")
			}
		}
	})
}
