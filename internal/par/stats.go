package par

import "sync/atomic"

// Opt-in runtime counters. When enabled, every loop dispatch records how
// the work was executed: whether it ran inline, how many chunks the pool
// handed out, and how many of those were picked up by pool workers rather
// than the submitting goroutine (the dynamic load balancing at work). The
// harness surfaces a snapshot next to its timing tables so experiments can
// report scheduler behaviour alongside wall clock.

// Stats is a snapshot of the runtime counters.
type Stats struct {
	// Tasks counts parallel loop dispatches routed through the worker
	// pool.
	Tasks uint64
	// SeqLoops counts loops that ran inline on the caller (too small for
	// the grain policy, or a single-worker configuration).
	SeqLoops uint64
	// Chunks counts chunks executed across all pooled tasks.
	Chunks uint64
	// Steals counts chunks executed by parked pool workers rather than
	// the goroutine that submitted the loop — work the dynamic claiming
	// moved off the caller.
	Steals uint64
}

var statsEnabled atomic.Bool

var (
	statTasks    atomic.Uint64
	statSeqLoops atomic.Uint64
	statChunks   atomic.Uint64
	statSteals   atomic.Uint64
)

// EnableStats switches runtime counter collection on or off. Collection
// is off by default; the counters cost a few atomic adds per loop
// dispatch (never per element) when enabled.
func EnableStats(on bool) { statsEnabled.Store(on) }

// StatsEnabled reports whether counter collection is on.
func StatsEnabled() bool { return statsEnabled.Load() }

// ResetStats zeroes the counters.
func ResetStats() {
	statTasks.Store(0)
	statSeqLoops.Store(0)
	statChunks.Store(0)
	statSteals.Store(0)
}

// SnapshotStats returns the current counter values.
func SnapshotStats() Stats {
	return Stats{
		Tasks:    statTasks.Load(),
		SeqLoops: statSeqLoops.Load(),
		Chunks:   statChunks.Load(),
		Steals:   statSteals.Load(),
	}
}

// recordTask accounts one pooled dispatch: nchunks chunks total, mine of
// them executed by the submitting goroutine. Called only when stats are
// enabled.
func recordTask(nchunks, mine int) {
	statTasks.Add(1)
	statChunks.Add(uint64(nchunks))
	statSteals.Add(uint64(nchunks - mine))
}

// recordSeq accounts one loop that ran inline.
func recordSeq() {
	if statsEnabled.Load() {
		statSeqLoops.Add(1)
	}
}
