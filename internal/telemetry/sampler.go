package telemetry

import (
	"runtime"
	"time"

	"repro/internal/par"
)

// Sampler is a background goroutine that polls process-level statistics
// onto gauges at a fixed interval: Go runtime memory/GC/goroutine stats
// and the par worker-pool scheduler counters. Create with
// StartRuntimeSampler; Stop to halt (idempotent).
type Sampler struct {
	stop chan struct{}
	done chan struct{}
}

// StartRuntimeSampler registers the runtime gauges on r, samples once
// immediately (so /metrics is populated before the first tick), and then
// resamples every interval (minimum 100ms; 0 means 1s) until Stop.
//
// The par_* gauges mirror par.SnapshotStats and are only live while
// par.EnableStats(true) — the -serve wiring in cmd/benchall enables it.
func StartRuntimeSampler(r *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	g := runtimeGauges(r)
	s := &Sampler{stop: make(chan struct{}), done: make(chan struct{})}
	g.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				g.sample()
			}
		}
	}()
	return s
}

// Stop halts the sampler and waits for the final sample to finish. Safe
// to call more than once.
func (s *Sampler) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// gaugeSet holds the handles the sampler refreshes.
type gaugeSet struct {
	goroutines   *Gauge
	heapAlloc    *Gauge
	heapSys      *Gauge
	heapObjects  *Gauge
	nextGC       *Gauge
	gcCycles     *Gauge
	gcPauseTotal *Gauge
	parWorkers   *Gauge
	parTasks     *Gauge
	parSeqLoops  *Gauge
	parChunks    *Gauge
	parSteals    *Gauge
}

func runtimeGauges(r *Registry) *gaugeSet {
	return &gaugeSet{
		goroutines:   r.Gauge("go_goroutines", "Number of live goroutines."),
		heapAlloc:    r.Gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects."),
		heapSys:      r.Gauge("go_heap_sys_bytes", "Bytes of heap obtained from the OS."),
		heapObjects:  r.Gauge("go_heap_objects", "Number of allocated heap objects."),
		nextGC:       r.Gauge("go_next_gc_bytes", "Heap size target of the next GC cycle."),
		gcCycles:     r.Gauge("go_gc_cycles_total", "Completed GC cycles since process start."),
		gcPauseTotal: r.Gauge("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time."),
		parWorkers:   r.Gauge("par_workers", "Configured parallel-runtime worker count."),
		parTasks:     r.Gauge("par_pool_tasks_total", "Parallel loop dispatches routed through the worker pool (requires par.EnableStats)."),
		parSeqLoops:  r.Gauge("par_pool_seq_loops_total", "Parallel loops that ran inline on the caller (requires par.EnableStats)."),
		parChunks:    r.Gauge("par_pool_chunks_total", "Chunks executed across pooled tasks (requires par.EnableStats)."),
		parSteals:    r.Gauge("par_pool_steals_total", "Chunks executed by parked pool workers rather than the submitter (requires par.EnableStats)."),
	}
}

func (g *gaugeSet) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.goroutines.Set(float64(runtime.NumGoroutine()))
	g.heapAlloc.Set(float64(ms.HeapAlloc))
	g.heapSys.Set(float64(ms.HeapSys))
	g.heapObjects.Set(float64(ms.HeapObjects))
	g.nextGC.Set(float64(ms.NextGC))
	g.gcCycles.Set(float64(ms.NumGC))
	g.gcPauseTotal.Set(float64(ms.PauseTotalNs) / 1e9)

	ps := par.SnapshotStats()
	g.parWorkers.Set(float64(par.Workers()))
	g.parTasks.Set(float64(ps.Tasks))
	g.parSeqLoops.Set(float64(ps.SeqLoops))
	g.parChunks.Set(float64(ps.Chunks))
	g.parSteals.Set(float64(ps.Steals))
}
