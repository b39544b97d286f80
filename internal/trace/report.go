package trace

import "time"

// Report is the run report every solver returns: the strategy that ran,
// the decomposition and solve wall times Figures 2–5 and Table I compare,
// and the inner solver's rounds summed over phases.
//
// A run is a sequence of contiguous phases — an optional decomposition,
// then one or more solve phases — and each phase boundary reads the clock
// exactly once. That one reading sets the report's times and, when
// tracing is on (Parent is non-nil), ends the phase's span and starts the
// next, so the report and the span tree never disagree. Likewise
// EndPhase adds a phase's rounds to both Report.Rounds and the span's
// "rounds" counter, which is therefore the only place a solver records
// them.
type Report struct {
	// Strategy names the algorithm ("MM-Rand", "VB", ...).
	Strategy string
	// Decomp is the decomposition wall time (zero when none ran).
	Decomp time.Duration
	// Solve runs from the end of the decomposition (or the start of the
	// first phase) to the end of the last phase, glue between phases
	// included.
	Solve time.Duration
	// Rounds accumulates the inner solver's rounds across phases.
	Rounds int
	// Parent is the span the decomposition and phase spans open under;
	// nil leaves the run untraced.
	Parent *Span

	// start is where Solve is measured from. Phases are contiguous, so
	// the latest reading — where the next span starts — is start+Solve.
	start time.Time
}

// Total is the end-to-end wall time (decomposition + solving).
func (r Report) Total() time.Duration { return r.Decomp + r.Solve }

// Decompose reads the clock and opens the "decomp" span there, under
// Parent.
func (r *Report) Decompose() *Span {
	r.start = time.Now()
	return r.Parent.beginAt("decomp", r.start)
}

// Decomposed closes the decomposition opened by Decompose: one reading
// ends sp, sets Decomp and starts the Solve clock.
func (r *Report) Decomposed(sp *Span) {
	now := time.Now()
	r.Decomp = now.Sub(r.start)
	r.start = now
	sp.endAt(now)
}

// Phase opens the span of the solve phase named name under Parent,
// starting where the previous phase ended. A run with no decomposition
// reads the clock here.
func (r *Report) Phase(name string) *Span {
	if r.start.IsZero() {
		r.start = time.Now()
	}
	return r.Parent.beginAt(name, r.start.Add(r.Solve))
}

// EndPhase closes a phase opened by Phase: rounds go to Report.Rounds and
// sp's "rounds" counter, and one reading ends sp and sets Solve.
func (r *Report) EndPhase(sp *Span, rounds int) {
	now := time.Now()
	r.Rounds += rounds
	r.Solve = now.Sub(r.start)
	sp.Add("rounds", int64(rounds))
	sp.endAt(now)
}
