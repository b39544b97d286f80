// Package core is the library's front door: it ties the decompositions
// (internal/decomp) and the three symmetry-breaking problem solvers
// (internal/matching, internal/coloring, internal/mis) into one Solve call,
// with the paper's Table I built in as the automatic strategy choice per
// problem and architecture.
//
// A minimal use:
//
//	res, err := core.Solve(g, core.ProblemMIS, core.Options{})
//	// res.IndepSet is a verified-shape maximal independent set; res.Report
//	// carries decomposition/solve timings and round counts.
package core

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/coloring"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/trace"
)

// Problem selects which symmetry-breaking problem to solve.
type Problem int

const (
	// ProblemMM is Maximal Matching (paper Section III).
	ProblemMM Problem = iota
	// ProblemColor is Vertex Coloring (paper Section IV).
	ProblemColor
	// ProblemMIS is Maximal Independent Set (paper Section V).
	ProblemMIS
)

// String returns the paper's name for the problem.
func (p Problem) String() string {
	switch p {
	case ProblemMM:
		return "MM"
	case ProblemColor:
		return "COLOR"
	case ProblemMIS:
		return "MIS"
	default:
		return "UNKNOWN"
	}
}

// Strategy selects the decomposition wrapped around the base algorithm.
type Strategy int

const (
	// StrategyAuto picks the paper's Table I winner for the problem and
	// architecture.
	StrategyAuto Strategy = iota
	// StrategyBaseline runs the base algorithm with no decomposition
	// (GM/VB/LubyMIS on the CPU; LMAX/EB/LubyMIS on the GPU).
	StrategyBaseline
	// StrategyBridge uses the BRIDGE decomposition (Algorithms 4, 7, 10).
	StrategyBridge
	// StrategyRand uses the RAND decomposition (Algorithms 5, 8, 11).
	StrategyRand
	// StrategyDegk uses the DEGk decomposition (Algorithms 6, 9, 12).
	StrategyDegk
	// StrategyMPX uses the Miller–Peng–Xu exponential-shift ball-growing
	// decomposition (an extension beyond the paper's Table I).
	StrategyMPX
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "AUTO"
	case StrategyBaseline:
		return "BASELINE"
	case StrategyBridge:
		return "BRIDGE"
	case StrategyRand:
		return "RAND"
	case StrategyDegk:
		return "DEGk"
	case StrategyMPX:
		return "MPX"
	default:
		return "UNKNOWN"
	}
}

// Arch selects the execution substrate.
type Arch int

const (
	// ArchCPU runs the multicore algorithms on goroutines.
	ArchCPU Arch = iota
	// ArchGPU runs the manycore algorithms on the bsp virtual device
	// (this reproduction's stand-in for the paper's K40c; see DESIGN.md).
	ArchGPU
)

// String names the architecture.
func (a Arch) String() string {
	if a == ArchGPU {
		return "GPU"
	}
	return "CPU"
}

// Options configures Solve. The zero value solves on the CPU with the
// paper's Table I strategy and default parameters.
type Options struct {
	// Strategy is the decomposition to use; StrategyAuto applies Table I.
	Strategy Strategy
	// Arch is the execution substrate.
	Arch Arch
	// RandParts is the RAND partition count k; 0 uses the paper's default
	// (10 on CPU, 4 on GPU).
	RandParts int
	// DegK is the DEGk threshold; 0 uses the paper's k = 2.
	DegK int
	// MPXBeta is the MPX ball-growing rate; 0 uses decomp.DefaultMPXBeta.
	MPXBeta float64
	// Seed drives every randomized component; runs are deterministic
	// under (Seed, options).
	Seed uint64
	// Machine is the virtual GPU to run on when Arch == ArchGPU; nil
	// creates a fresh one.
	Machine *bsp.Machine
	// Trace is the span the run's "core <problem>/<strategy>/<arch>" span
	// opens under, holding the decomposition and solve phase spans; nil
	// leaves the run untraced.
	Trace *trace.Span
}

// Normalized returns the options with the paper's defaults filled in —
// the same resolution Solve applies internally. Callers that key caches or
// coalesce identical requests (the serving layer) normalize first, so a
// request that spells out a default and one that leaves it zero map to the
// same key. Note Normalized materializes a fresh bsp.Machine for GPU
// options with a nil Machine; key builders should hash the scalar fields
// only.
func (o Options) Normalized() Options { return o.withDefaults() }

// withDefaults fills in the paper's defaults.
func (o Options) withDefaults() Options {
	if o.RandParts == 0 {
		if o.Arch == ArchGPU {
			o.RandParts = 4
		} else {
			o.RandParts = 10
		}
	}
	if o.DegK == 0 {
		o.DegK = 2
	}
	if o.MPXBeta == 0 {
		o.MPXBeta = decomp.DefaultMPXBeta
	}
	if o.Arch == ArchGPU && o.Machine == nil {
		o.Machine = bsp.New()
	}
	return o
}

// Validate returns the error Solve would return for p under these
// options, whose defaults must already be filled in (see Normalized): an
// unknown strategy, RandParts < 1, DegK < 0, MIS under DEGk (explicit or
// Table I's auto choice) with DegK ≠ 2, because its KP solver handles G_L
// only at maximum degree 2, or an MPXBeta that decomp.CheckMPXBeta
// rejects. The serving layer calls it on the options it keys a request
// by, before admission.
func (o Options) Validate(p Problem) error {
	strategy := o.strategyFor(p)
	switch {
	case strategy < StrategyBaseline || strategy > StrategyMPX:
		return fmt.Errorf("core: unknown strategy %d", strategy)
	case o.RandParts < 1:
		return fmt.Errorf("core: RandParts must be ≥ 1, got %d", o.RandParts)
	case o.DegK < 0:
		return fmt.Errorf("core: DegK must be ≥ 0, got %d", o.DegK)
	case p == ProblemMIS && strategy == StrategyDegk && o.DegK != 2:
		return fmt.Errorf("core: MIS-DEGk needs DegK = 2 (its KP solver handles degree ≤ 2), got %d", o.DegK)
	}
	if err := decomp.CheckMPXBeta(o.MPXBeta); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// strategyFor resolves StrategyAuto to Table I's choice for p.
func (o Options) strategyFor(p Problem) Strategy {
	if o.Strategy == StrategyAuto {
		return TableIStrategy(p, o.Arch)
	}
	return o.Strategy
}

// TableIStrategy returns the paper's best decomposition (Table I) for the
// given problem and architecture: MM→RAND on both; COLOR→DEGk on the CPU
// and no decomposition on the GPU (the paper reports 1× there); MIS→DEGk
// on both.
func TableIStrategy(p Problem, a Arch) Strategy {
	switch p {
	case ProblemMM:
		return StrategyRand
	case ProblemColor:
		if a == ArchGPU {
			return StrategyBaseline
		}
		return StrategyDegk
	case ProblemMIS:
		return StrategyDegk
	default:
		return StrategyBaseline
	}
}

// Report is the run report: the solver's trace.Report — the concrete
// algorithm name ("MM-Rand", "VB", ...), decomposition and solve wall
// times, and rounds — plus the virtual machine counters the run consumed.
// Its Parent is always nil: the run's spans have ended by then.
type Report struct {
	trace.Report
	// GPUStats snapshots the virtual machine counters consumed by this run
	// (GPU runs only).
	GPUStats bsp.Stats
}

// Result bundles the solution of whichever problem was solved with its
// report. Exactly one of Matching / Coloring / IndepSet is non-nil.
type Result struct {
	Matching *matching.Matching
	Coloring *coloring.Coloring
	IndepSet *mis.IndepSet
	Report   Report
}

// Solve runs the selected problem on g under the options. It returns an
// error only for invalid configurations; algorithmic failures are
// impossible by construction (every path yields a verified-shape solution,
// and Verify re-checks it cheaply if desired).
func Solve(g *graph.Graph, p Problem, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(p); err != nil {
		return nil, err
	}
	strategy := opt.strategyFor(p)

	res := &Result{}
	var before bsp.Stats
	if opt.Arch == ArchGPU {
		before = opt.Machine.Stats()
	}

	sp := opt.Trace.Beginf("core %s/%s/%s", p, strategy, opt.Arch)
	var rep trace.Report
	switch p {
	case ProblemMM:
		res.Matching, rep = solveMM(g, strategy, opt, sp)
	case ProblemColor:
		res.Coloring, rep = solveColor(g, strategy, opt, sp)
	case ProblemMIS:
		res.IndepSet, rep = solveMIS(g, strategy, opt, sp)
	default:
		sp.End()
		return nil, fmt.Errorf("core: unknown problem %d", p)
	}
	sp.Add("rounds", int64(rep.Rounds))
	sp.End()
	rep.Parent = nil
	res.Report.Report = rep

	if opt.Arch == ArchGPU {
		after := opt.Machine.Stats()
		res.Report.GPUStats = bsp.Stats{
			Launches:   after.Launches - before.Launches,
			ThreadsRun: after.ThreadsRun - before.ThreadsRun,
			KernelTime: after.KernelTime - before.KernelTime,
			SimTime:    after.SimTime - before.SimTime,
		}
	}
	return res, nil
}

// solveMM runs the strategy's matcher with its spans under parent; the
// baseline runs as the report's single phase, "solve". solveColor and
// solveMIS have the same shape.
func solveMM(g *graph.Graph, strategy Strategy, opt Options, parent *trace.Span) (*matching.Matching, trace.Report) {
	alg, name := matching.GMSolver(), "GM"
	if opt.Arch == ArchGPU {
		alg, name = matching.LMAXSolver(opt.Machine, opt.Seed), "LMAX"
	}
	switch strategy {
	case StrategyBridge:
		return matching.MMBridge(g, alg, parent)
	case StrategyRand:
		return matching.MMRand(g, opt.RandParts, opt.Seed, alg, parent)
	case StrategyDegk:
		return matching.MMDegk(g, opt.DegK, alg, parent)
	case StrategyMPX:
		return matching.MMMPX(g, opt.MPXBeta, opt.Seed, alg, parent)
	}
	rep := trace.Report{Strategy: name, Parent: parent}
	sp := rep.Phase("solve")
	m, st := alg(g, sp)
	sp.Add("matched", st.Matched)
	rep.EndPhase(sp, st.Rounds)
	return m, rep
}

func solveColor(g *graph.Graph, strategy Strategy, opt Options, parent *trace.Span) (*coloring.Coloring, trace.Report) {
	var eng coloring.Engine = coloring.NewVB()
	if opt.Arch == ArchGPU {
		eng = coloring.NewEB(opt.Machine)
	}
	var c *coloring.Coloring
	var rep coloring.Report
	switch strategy {
	case StrategyBridge:
		c, rep = coloring.ColorBridge(g, eng, parent)
	case StrategyRand:
		c, rep = coloring.ColorRand(g, opt.RandParts, opt.Seed, eng, parent)
	case StrategyDegk:
		c, rep = coloring.ColorDegk(g, opt.DegK, eng, parent)
	case StrategyMPX:
		c, rep = coloring.ColorMPX(g, opt.MPXBeta, opt.Seed, eng, parent)
	default:
		rep.Strategy, rep.Parent = eng.Name(), parent
		sp := rep.Phase("solve")
		var st coloring.Stats
		c, st = coloring.Fresh(g, eng, sp)
		rep.EndPhase(sp, st.Rounds)
	}
	return c, rep.Report
}

func solveMIS(g *graph.Graph, strategy Strategy, opt Options, parent *trace.Span) (*mis.IndepSet, trace.Report) {
	alg := mis.LubySolver(opt.Seed)
	if opt.Arch == ArchGPU {
		alg = mis.LubyGPUSolver(opt.Machine, opt.Seed)
	}
	var s *mis.IndepSet
	var rep mis.Report
	switch strategy {
	case StrategyBridge:
		s, rep = mis.MISBridge(g, alg, parent)
	case StrategyRand:
		s, rep = mis.MISRand(g, opt.RandParts, opt.Seed, alg, parent)
	case StrategyDegk:
		kp := mis.KPSolver()
		if opt.Arch == ArchGPU {
			kp = mis.KPSolverOn(opt.Machine)
		}
		s, rep = mis.MISDeg2With(g, alg, kp, parent)
	case StrategyMPX:
		s, rep = mis.MISMPX(g, opt.MPXBeta, opt.Seed, alg, parent)
	default:
		rep.Strategy, rep.Parent = "LubyMIS", parent
		sp := rep.Phase("solve")
		var st mis.Stats
		s, st = mis.Fresh(g, alg, sp)
		rep.EndPhase(sp, st.Rounds)
	}
	return s, rep.Report
}

// SolveVerified runs Solve and then Verify, returning the result only if
// the solution re-checks against g. It is the entry point request-serving
// paths share with cmd/symbreak: one call that either yields a verified
// solution or an error, never an unchecked result.
func SolveVerified(g *graph.Graph, p Problem, opt Options) (*Result, error) {
	res, err := Solve(g, p, opt)
	if err != nil {
		return nil, err
	}
	if err := Verify(g, res); err != nil {
		return nil, fmt.Errorf("core: solution failed verification: %w", err)
	}
	return res, nil
}

// SolutionDigest returns a 64-bit FNV-1a content hash of the solution
// payload — the Mate, Color, or In array, tagged by problem kind. Because
// every solver is deterministic under (seed, options) for any worker
// count (the determinism sweep pins this), the digest is a compact
// equality witness for "same request, same answer": the serving layer
// returns it in every /solve response and the end-to-end tests compare it
// across servers. Returns 0 for a Result holding no solution.
func (r *Result) SolutionDigest() uint64 {
	h := uint64(graph.FNVOffset64)
	switch {
	case r.Matching != nil:
		h = graph.FNVMix64(h, uint64(ProblemMM))
		for _, m := range r.Matching.Mate {
			h = graph.FNVMix64(h, uint64(uint32(m)))
		}
	case r.Coloring != nil:
		h = graph.FNVMix64(h, uint64(ProblemColor))
		for _, c := range r.Coloring.Color {
			h = graph.FNVMix64(h, uint64(uint32(c)))
		}
	case r.IndepSet != nil:
		h = graph.FNVMix64(h, uint64(ProblemMIS))
		for _, in := range r.IndepSet.In {
			var b uint64
			if in {
				b = 1
			}
			h = graph.FNVMix64(h, b)
		}
	default:
		return 0
	}
	return h
}

// SolutionCount returns the problem's headline cardinality: matched edges
// for MM, palette size for COLOR, member count for MIS. Returns 0 for a
// Result holding no solution.
func (r *Result) SolutionCount() int64 {
	switch {
	case r.Matching != nil:
		return r.Matching.Cardinality()
	case r.Coloring != nil:
		return int64(r.Coloring.NumColors())
	case r.IndepSet != nil:
		return r.IndepSet.Size()
	default:
		return 0
	}
}

// Verify re-checks the solution in a Result against the graph it was
// computed on: matching validity+maximality, proper complete coloring, or
// MIS independence+maximality.
func Verify(g *graph.Graph, res *Result) error {
	switch {
	case res.Matching != nil:
		return matching.Verify(g, res.Matching)
	case res.Coloring != nil:
		return coloring.Verify(g, res.Coloring)
	case res.IndepSet != nil:
		return mis.Verify(g, res.IndepSet)
	default:
		return fmt.Errorf("core: result holds no solution")
	}
}
