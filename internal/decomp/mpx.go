package decomp

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// MPX is the Miller–Peng–Xu exponential-shift ball-growing decomposition
// (Miller, Peng & Xu, SPAA 2013), an extension beyond the paper's three
// techniques. Every vertex draws an exponential shift delta_v ~ Exp(beta)
// and starts growing a ball at time maxDelta − delta_v; balls grow one hop
// per round via the frontier engine, and a vertex reached by several balls
// in the same round joins the one with the smallest center id. With high
// probability each ball has radius O(log n / beta) and the number of
// inter-ball edges is O(beta · m) in expectation — beta trades ball count
// against cross edges, where RAND's k trades part count against them.

// DefaultMPXBeta is the default ball-growing rate. The quality sweep in
// EXPERIMENTS.md picks it: small enough that balls are coarse, large
// enough that the start times stagger and round counts stay low.
const DefaultMPXBeta = 0.2

// MinMPXBeta is the smallest rate MPX runs at. A shift is
// delta_v = −ln(u_v)/beta for a 53-bit uniform u_v in (0, 1], so
// delta_v ≤ 53·ln 2/beta, and the largest start round ⌊maxDelta − delta_v⌋
// is at most ⌊53·ln 2/beta⌋. Rounds are int32, and no vertex is claimed
// after the largest start round (every vertex still unclaimed then seeds
// its own ball). Holding that round to 2³⁰ keeps the float→int32
// conversion in range, which Go leaves implementation-defined otherwise,
// with half of int32 to spare: beta ≥ 53·ln 2/2³⁰ ≈ 3.42·10⁻⁸.
const MinMPXBeta = 53 * math.Ln2 / (1 << 30)

// CheckMPXBeta is the one check of an MPX rate: beta must be finite and at
// least MinMPXBeta. MPXGrow panics on any other value; core's option
// validation and cmd/decomp reject it as input.
func CheckMPXBeta(beta float64) error {
	if math.IsNaN(beta) || math.IsInf(beta, 0) || beta < MinMPXBeta {
		return fmt.Errorf("MPX beta must be finite and ≥ %.3g, got %v", MinMPXBeta, beta)
	}
	return nil
}

// MPXInfo is the raw product of the ball-growing phase, before any
// subgraph materialization — what the mask-based solvers and the validity
// tests consume.
type MPXInfo struct {
	// Center[v] is the center vertex of v's ball (Center[c] == c for a
	// center c).
	Center []int32
	// Round[v] is the round at which v was claimed: its ball's start
	// round for a center, and always one more than some same-ball
	// neighbor's Round otherwise — so Round[v] − Round[Center[v]] bounds
	// dist(v, Center[v]).
	Round []int32
	// Delta holds the exponential shifts; MaxDelta their maximum.
	Delta    []float64
	MaxDelta float64
	// Balls is the number of balls grown; Rounds the number of parallel
	// rounds executed.
	Balls  int
	Rounds int
}

// MPXGrow runs the ball-growing phase. Shifts are pure hashes of
// (seed, v), claims take the minimum center id, and the per-round frontier
// comes from the frontier engine, so the assignment is bit-identical under
// any worker count. The phase is traced as an "mpx-grow" span under
// parent, carrying the per-round frontier series (nil: untraced).
func MPXGrow(g *graph.Graph, beta float64, seed uint64, parent *trace.Span) *MPXInfo {
	if err := CheckMPXBeta(beta); err != nil {
		panic("decomp: " + err.Error())
	}
	info := &MPXInfo{}
	sp := parent.Begin("mpx-grow")
	n := g.NumVertices()
	delta := make([]float64, n)
	par.For(n, func(i int) {
		// Uniform in (0, 1], so the log is finite.
		u := (float64(par.Hash64(seed, int64(i))>>11) + 1) / (1 << 53)
		delta[i] = -math.Log(u) / beta
	})
	maxDelta := par.MaxIndexed(n, 0, func(i int) float64 { return delta[i] })

	// start[v] = floor(maxDelta − delta_v): the round at which v
	// begins growing its own ball unless another ball claimed it
	// first. Fractional shift differences within a round resolve by
	// the min-center-id tie break below.
	start := make([]int32, n)
	par.For(n, func(i int) {
		start[i] = int32(maxDelta - delta[i])
	})

	// Vertices ordered by (start round, id): a cursor walks this once,
	// seeding each round's new centers in ascending id order.
	order := make([]int32, n)
	par.Iota(order)
	par.SortSlice(order, func(a, b int32) bool {
		if start[a] != start[b] {
			return start[a] < start[b]
		}
		return a < b
	})

	center := make([]int32, n)
	round := make([]int32, n)
	par.Fill(center, int32(-1))
	par.Fill(round, int32(-1))
	visited := par.NewBitset(n)

	eng := &frontier.Engine{Span: sp}
	f := frontier.Empty(n)
	remaining := n
	cursor := 0
	r := int32(0)
	for remaining > 0 {
		// Seed the balls whose shifted start time has arrived, unless
		// a growing ball already swallowed the would-be center.
		var centers []int32
		for cursor < n && start[order[cursor]] <= r {
			v := order[cursor]
			cursor++
			if !visited.Test(int(v)) {
				centers = append(centers, v)
			}
		}
		if len(centers) > 0 {
			cs := centers
			rr := r
			par.For(len(cs), func(i int) {
				v := cs[i]
				center[v] = v
				round[v] = rr
				visited.Set(int(v))
			})
			info.Balls += len(cs)
			remaining -= len(cs)
			f = frontier.Union(f, frontier.New(n, centers))
		}
		if remaining == 0 {
			info.Rounds = int(r) + 1
			break
		}
		if f.IsEmpty() {
			// Nothing growing yet: jump to the next start time.
			if next := start[order[cursor]]; next > r {
				r = next
			} else {
				r++
			}
			continue
		}
		// Grow every ball one hop. A contended vertex keeps the
		// smallest center id (CAS-min), so the claim is order-free;
		// Dedup because the min can improve more than once per round.
		nf := eng.EdgeMap(g, f, frontier.Ops{
			Cond:  func(v int32) bool { return !visited.Test(int(v)) },
			Dedup: true,
			Update: func(u, v int32) bool {
				return claimMinCenter(&center[v], center[u])
			},
		})
		// Claim phase: the newly reached vertices join their balls.
		rr := r + 1
		frontier.Map(nf, func(v int32) {
			visited.Set(int(v))
			round[v] = rr
		})
		remaining -= nf.Size()
		f = nf
		r++
		info.Rounds = int(r)
	}
	info.Center = center
	info.Round = round
	info.Delta = delta
	info.MaxDelta = maxDelta
	sp.Add("balls", int64(info.Balls))
	sp.Add("rounds", int64(info.Rounds))
	sp.End()
	return info
}

// claimMinCenter atomically lowers *addr to id (−1 meaning unclaimed) and
// reports whether it improved the value.
func claimMinCenter(addr *int32, id int32) bool {
	for {
		cur := atomic.LoadInt32(addr)
		if cur != -1 && cur <= id {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, cur, id) {
			return true
		}
	}
}

// MPX runs the ball growing and materializes the decomposition in the
// BRIDGE shape: one part holding the union of the balls (every inter-ball
// edge removed) and Cross holding the inter-ball edges — no per-ball
// subgraph is built, since the ball count is data-dependent and large.
// Label is the dense ball index, ordered by center vertex id.
func MPX(g *graph.Graph, beta float64, seed uint64) *Result {
	r := &Result{Technique: TechMPX}
	info := MPXGrow(g, beta, seed, nil)
	r.Rounds = info.Rounds
	r.Balls = info.Balls
	n := g.NumVertices()
	center := info.Center

	gb, cross := graph.SplitEdges(g, func(a, b int32) bool { return center[a] == center[b] })
	r.Parts = []*graph.Sub{graph.IdentitySub(gb)}
	r.Cross = cross

	// Compact center ids to dense ball indices: rank of the center
	// among all centers in id order.
	r.Label, _ = par.DenseRelabel(center, n)
	return r
}
