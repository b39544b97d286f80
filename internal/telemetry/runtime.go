package telemetry

import (
	"runtime"

	"repro/internal/par"
)

// RegisterRuntime registers the Go runtime and par worker-pool gauges on
// r as funcs, so every scrape reads them from their owners: runtime
// memory, GC and goroutine statistics, and the par scheduler counters.
// Each go_* memory gauge reads runtime.MemStats afresh.
//
// The par_pool_* gauges mirror par.SnapshotStats and only move while
// par.EnableStats(true) — the -serve wiring in cmd/benchall enables it.
func RegisterRuntime(r *Registry) {
	mem := func(field func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return field(&ms)
		}
	}
	pool := func(field func(par.Stats) uint64) func() float64 {
		return func() float64 { return float64(field(par.SnapshotStats())) }
	}
	r.GaugeFunc("go_goroutines", "Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }))
	r.GaugeFunc("go_heap_sys_bytes", "Bytes of heap obtained from the OS.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapSys) }))
	r.GaugeFunc("go_heap_objects", "Number of allocated heap objects.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.HeapObjects) }))
	r.GaugeFunc("go_next_gc_bytes", "Heap size target of the next GC cycle.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.NextGC) }))
	r.GaugeFunc("go_gc_cycles_total", "Completed GC cycles since process start.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.NumGC) }))
	r.GaugeFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.",
		mem(func(ms *runtime.MemStats) float64 { return float64(ms.PauseTotalNs) / 1e9 }))
	r.GaugeFunc("par_workers", "Configured parallel-runtime worker count.",
		func() float64 { return float64(par.Workers()) })
	r.GaugeFunc("par_pool_tasks_total", "Parallel loop dispatches routed through the worker pool (requires par.EnableStats).",
		pool(func(s par.Stats) uint64 { return s.Tasks }))
	r.GaugeFunc("par_pool_seq_loops_total", "Parallel loops that ran inline on the caller (requires par.EnableStats).",
		pool(func(s par.Stats) uint64 { return s.SeqLoops }))
	r.GaugeFunc("par_pool_chunks_total", "Chunks executed across pooled tasks (requires par.EnableStats).",
		pool(func(s par.Stats) uint64 { return s.Chunks }))
	r.GaugeFunc("par_pool_steals_total", "Chunks executed by parked pool workers rather than the submitter (requires par.EnableStats).",
		pool(func(s par.Stats) uint64 { return s.Steals }))
}
