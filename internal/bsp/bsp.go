// Package bsp provides a bulk-synchronous virtual manycore machine that
// stands in for the paper's NVidia K40c GPU (this reproduction has no CUDA
// path; see DESIGN.md §2).
//
// A Machine executes kernels: a kernel launch runs one logical thread per
// data element with an implicit global barrier at the end, exactly the
// structure of the paper's GPU codes (LMAX matching, edge-based coloring,
// Luby MIS). Kernels receive the logical threads in contiguous chunks and
// execute on goroutines, so wall-clock speed is the host's. A kernel may
// skip the retired threads of its chunk a word of flags at a time, as a
// warp of retired threads exits after one flag load (LMAX's live bitset);
// a launch still counts all n logical threads. The machine additionally
// accounts a simulated time that charges a fixed per-launch overhead —
// the dominant constant of real GPU execution for these iterative
// label/flag algorithms. Iteration-heavy
// algorithms therefore pay proportionally on the simulated clock just as
// they do on a real device, preserving the paper's relative comparisons
// (e.g. "Algorithm EB finishes faster than the time taken for the
// decomposition" on small instances).
package bsp

import (
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Live telemetry published per kernel launch, recorded once
// telemetry.Enable(true) (the -serve wiring): the per-superstep timing
// distribution plus launch and logical-thread totals. Handles are hoisted
// so the Launch hot path pays one atomic load per update.
var (
	kernelSeconds = telemetry.Default.Histogram(
		"bsp_kernel_seconds",
		"Host wall-clock time per virtual-GPU kernel launch (one bulk-synchronous superstep).",
		nil)
	launchesTotal = telemetry.Default.Counter(
		"bsp_launches_total",
		"Virtual-GPU kernel launches (bulk-synchronous supersteps executed).")
	threadsTotal = telemetry.Default.Counter(
		"bsp_threads_total",
		"Logical threads run across virtual-GPU kernel launches.")
)

// DefaultLaunchOverhead is the simulated fixed cost per kernel launch.
// Real kernel launch + sync latency on a K40c-generation device is in the
// 5–20µs range; we use 10µs.
const DefaultLaunchOverhead = 10 * time.Microsecond

// Machine is a virtual bulk-synchronous manycore processor. It runs
// kernels on the par package's workers and charges DefaultLaunchOverhead
// per launch on its simulated clock. A Machine may be reused across
// algorithms; ResetStats clears its counters between experiments.
type Machine struct {
	launches   atomic.Int64
	threadsRun atomic.Int64
	kernelTime atomic.Int64 // wall nanoseconds inside kernels
}

// New returns a Machine with zeroed counters.
func New() *Machine { return &Machine{} }

// Launch runs kernel(lo, hi) over a partition of [0, n) into contiguous
// chunks and returns after every chunk finishes (the global barrier),
// reporting the launch's host wall time. Each index in [lo, hi) is one
// logical thread: a kernel's result must not depend on how [0, n) is split
// into chunks, and only scratch may carry across the indices of one chunk.
// Kernels must communicate only through memory writes that are safe under
// concurrent execution (atomics or disjoint indices), as on a real device.
func (m *Machine) Launch(n int, kernel func(lo, hi int)) time.Duration {
	start := time.Now()
	par.Range(n, kernel)
	elapsed := time.Since(start)
	m.launches.Add(1)
	m.threadsRun.Add(int64(n))
	m.kernelTime.Add(int64(elapsed))
	kernelSeconds.Observe(elapsed.Seconds())
	launchesTotal.Inc()
	threadsTotal.Add(float64(n))
	return elapsed
}

// In returns a launcher that runs kernels with Launch and attributes each
// launch to sp (counters gpu_launches, gpu_threads, gpu_kernel_ns) — the
// per-superstep accounting behind the GPU columns of the rounds tables.
func (m *Machine) In(sp *trace.Span) func(n int, kernel func(lo, hi int)) {
	return func(n int, kernel func(lo, hi int)) {
		elapsed := m.Launch(n, kernel)
		sp.Add("gpu_launches", 1)
		sp.Add("gpu_threads", int64(n))
		sp.Add("gpu_kernel_ns", int64(elapsed))
	}
}

// Stats is a snapshot of a Machine's execution counters.
type Stats struct {
	// Launches is the number of kernel launches (≈ number of
	// bulk-synchronous steps executed).
	Launches int64
	// ThreadsRun is the total number of logical threads across launches.
	ThreadsRun int64
	// KernelTime is host wall-clock time spent inside kernels.
	KernelTime time.Duration
	// SimTime is the simulated device time: kernel time plus the
	// per-launch overhead. Harness GPU timings add it to the run's host
	// decomposition and the solve's host time outside kernels.
	SimTime time.Duration
}

// Stats returns a snapshot of the counters.
func (m *Machine) Stats() Stats {
	launches := m.launches.Load()
	kt := time.Duration(m.kernelTime.Load())
	return Stats{
		Launches:   launches,
		ThreadsRun: m.threadsRun.Load(),
		KernelTime: kt,
		SimTime:    kt + time.Duration(launches)*DefaultLaunchOverhead,
	}
}

// ResetStats zeroes the counters.
func (m *Machine) ResetStats() {
	m.launches.Store(0)
	m.threadsRun.Store(0)
	m.kernelTime.Store(0)
}
