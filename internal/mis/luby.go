package mis

import (
	"sync/atomic"

	"repro/internal/bsp"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// Luby computes a maximal independent set with Luby's classic algorithm
// (the paper's Algorithm LubyMIS, [22]): each round every undecided vertex
// recomputes its residual degree d(v) and marks itself with probability
// 1/(2·d(v)) (degree-0 vertices join outright); for every edge with both
// endpoints marked, the lower-degree endpoint unmarks; survivors join the
// set and their neighbors drop out. At least half the live edges disappear
// per round in expectation, giving O(log n) rounds w.h.p. — but each round
// pays a full sweep with residual-degree recomputation, the cost the
// decomposition-based algorithms avoid on the parts they peel off.
//
// Coin flips are hashes of (seed, round, v), so runs are deterministic
// under a seed for any worker count.
func Luby(g *graph.Graph, seed uint64) (*IndepSet, Stats) {
	return Fresh(g, LubySolver(seed), nil)
}

// LubyGPU is Luby's algorithm with every round's three phases executed as
// kernel launches on the bsp virtual manycore, mirroring the paper's GPU
// baseline.
func LubyGPU(g *graph.Graph, machine *bsp.Machine, seed uint64) (*IndepSet, Stats) {
	return Fresh(g, LubyGPUSolver(machine, seed), nil)
}

// LubySolver returns Luby's algorithm as a masked Solver.
func LubySolver(seed uint64) Solver {
	return func(g *graph.Graph, status []State, set *IndepSet, active []int32, sp *trace.Span) Stats {
		return lubyRun(g, seed, par.Range, status, set, active, sp)
	}
}

// LubyGPUSolver returns Luby's algorithm running its per-round phases as
// kernels on machine, attributed to the phase span.
func LubyGPUSolver(machine *bsp.Machine, seed uint64) Solver {
	return func(g *graph.Graph, status []State, set *IndepSet, active []int32, sp *trace.Span) Stats {
		return lubyRun(g, seed, machine.In(sp), status, set, active, sp)
	}
}

// GreedySolver returns the random-priority greedy algorithm of Blelloch et
// al. as a masked Solver: one random permutation fixes priorities for the
// whole run; each round the local minima among undecided neighbors join and
// their neighbors leave. The round count equals the dependence depth of the
// greedy sequential algorithm, O(log² n) w.h.p., and no per-round degree
// recomputation is needed.
func GreedySolver(seed uint64) Solver {
	return func(g *graph.Graph, status []State, set *IndepSet, active []int32, sp *trace.Span) Stats {
		return localMinRun(g, seed, par.Range, status, set, active, sp)
	}
}

// Greedy computes an MIS with GreedySolver over the whole graph.
func Greedy(g *graph.Graph, seed uint64) (*IndepSet, Stats) {
	return Fresh(g, GreedySolver(seed), nil)
}

// lubyRun is the classic Luby loop. As in the standard implementations the
// paper benchmarks against, every round sweeps the full member list with a
// status check rather than compacting an active list; a phase handed a
// small member set therefore sweeps only that set. exec runs a kernel over
// a partition of [0, n) into chunks: par.Range on the CPU, a kernel launch
// on the virtual GPU.
//
//lint:hotpath
func lubyRun(g *graph.Graph, seed uint64, exec func(n int, kernel func(lo, hi int)),
	status []State, set *IndepSet, members []int32, sp *trace.Span) Stats {

	var st Stats
	n := g.NumVertices()
	deg := make([]int32, n)
	marked := make([]bool, n)
	remaining := int64(len(members))
	var decided atomic.Int64

	for remaining > 0 {
		st.Rounds++
		roundSeed := par.Hash64(seed, int64(st.Rounds))
		// Phase 1: residual degree + coin flip with probability 1/(2d).
		exec(len(members), func(lo, hi int) {
			for _, v := range members[lo:hi] {
				if status[v] != StateUndecided {
					continue
				}
				var d int32
				for _, w := range g.Neighbors(v) {
					if status[w] == StateUndecided {
						d++
					}
				}
				deg[v] = d
				if d == 0 {
					set.In[v] = true // isolated in the residual graph: join
					marked[v] = false
					continue
				}
				// P(mark) = 1/(2d): compare the hash against 2^64/(2d).
				threshold := ^uint64(0) / uint64(2*d)
				marked[v] = par.Hash64(roundSeed, int64(v)) <= threshold
			}
		})
		// Phase 2: resolve marked edges — the lower-degree endpoint
		// unmarks (ties toward the smaller id). Survivors are local maxima
		// of (degree, id) among marked neighbors, hence independent.
		exec(len(members), func(lo, hi int) {
		vertices:
			for _, v := range members[lo:hi] {
				if status[v] != StateUndecided || !marked[v] {
					continue
				}
				dv := deg[v]
				for _, w := range g.Neighbors(v) {
					if status[w] != StateUndecided || !marked[w] {
						continue
					}
					if deg[w] > dv || (deg[w] == dv && w > v) {
						continue vertices // v unmarks: do not join this round
					}
				}
				set.In[v] = true
			}
		})
		// Phase 3: joiners become in, their neighbors out.
		decided.Store(0)
		exec(len(members), func(lo, hi int) {
		vertices:
			for _, v := range members[lo:hi] {
				if status[v] != StateUndecided {
					continue
				}
				if set.In[v] {
					status[v] = StateIn
					decided.Add(1)
					continue
				}
				for _, w := range g.Neighbors(v) {
					if set.In[w] {
						status[v] = StateOut
						decided.Add(1)
						continue vertices
					}
				}
			}
		})
		remaining -= decided.Load()
		sp.Append("frontier", remaining)
	}
	return st
}

// localMinRun is the fixed-priority local-minimum loop of GreedySolver
// and KPSolver: priorities are hashes of (seed, v), fixed for the whole
// run, and each round the undecided vertices that are priority minima
// among their undecided neighbors join the set and their neighbors leave.
// The active set lives in a frontier.Subset and compacts with
// frontier.Filter each round (host-side, as thrust would do it), so the
// work is proportional to the shrinking residual; the two per-round
// sweeps run on exec, so GPU runs charge them to the virtual machine.
// Each round's remaining active count is appended to sp's "frontier"
// series.
func localMinRun(g *graph.Graph, seed uint64, exec func(n int, kernel func(lo, hi int)),
	status []State, set *IndepSet, active []int32, sp *trace.Span) Stats {
	var st Stats
	prio := func(v int32) uint64 { return par.Hash64(seed, int64(v)) }
	act := frontier.New(g.NumVertices(), active)
	for !act.IsEmpty() {
		st.Rounds++
		vs := act.Vertices()
		exec(len(vs), func(lo, hi int) {
		vertices:
			for _, v := range vs[lo:hi] {
				pv := prio(v)
				for _, w := range g.Neighbors(v) {
					if status[w] != StateUndecided {
						continue
					}
					pw := prio(w)
					if pw < pv || (pw == pv && w < v) {
						continue vertices // a higher-priority undecided neighbor: wait
					}
				}
				set.In[v] = true
			}
		})
		exec(len(vs), func(lo, hi int) {
		vertices:
			for _, v := range vs[lo:hi] {
				if set.In[v] {
					status[v] = StateIn
					continue
				}
				for _, w := range g.Neighbors(v) {
					if set.In[w] {
						status[v] = StateOut
						continue vertices
					}
				}
			}
		})
		act = frontier.Filter(act, func(v int32) bool { return status[v] == StateUndecided })
		sp.Append("frontier", int64(act.Size()))
	}
	return st
}
