package par

import (
	"sync"
	"sync/atomic"
)

// The persistent worker pool. Loop primitives no longer spawn goroutines
// per call: a call packages its body into a task, wakes parked pool
// workers, and participates itself. The index space is split into chunks
// (sized by the adaptive grain policy below) that executors claim with an
// atomic counter, so a straggler chunk cannot serialize the tail the way
// the old static one-chunk-per-worker split did on skewed workloads. The
// completion barrier is a chunk count carried by the task — each task is
// one generation of work; workers outlive every generation and park on a
// channel receive between tasks, costing nothing while idle.

// Chunking policy. Loops shorter than seqCutoff run inline on the caller:
// even a pooled hand-off costs more than the loop body. Above the cutoff
// the grain targets chunksPerWorker chunks per worker — enough slack for
// dynamic claiming to absorb skew — but never below minAdaptiveGrain
// elements, so tiny chunks cannot drown the claim counter in contention.
const (
	// minGrain is the sequential cutoff: loops over fewer elements run
	// inline. (The name is historical; the per-chunk grain itself now
	// adapts to n/workers instead of being fixed at this value.)
	minGrain = 1024

	// chunksPerWorker is the oversubscription factor of the adaptive
	// grain: each worker's share of the index space is split this many
	// ways so dynamic claiming can rebalance skewed chunks.
	chunksPerWorker = 4

	// minAdaptiveGrain floors the adaptive chunk size.
	minAdaptiveGrain = 256
)

// grainFor returns the adaptive chunk size for an n-element loop run by
// workers executors. Callers guarantee workers >= 2 and n >= minGrain.
func grainFor(n, workers int) int {
	g := n / (workers * chunksPerWorker)
	if g < minAdaptiveGrain {
		g = minAdaptiveGrain
	}
	return g
}

// numChunksFor reports how many chunks an n-element loop splits into under
// the given worker count. It is the single source of truth shared by
// NumChunks and the dispatcher, so per-chunk scratch sized with NumChunks
// always matches the chunk indexes the loop hands out.
func numChunksFor(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minGrain {
		return 1
	}
	g := grainFor(n, workers)
	return (n + g - 1) / g
}

// task is one parallel loop in flight: a generation of chunks claimed via
// an atomic counter by the caller and any pool workers that picked the
// task up. The WaitGroup counts chunks (not goroutines); nothing is
// spawned on its behalf.
type task struct {
	fn      func(chunk, lo, hi int)
	n       int
	grain   int
	nchunks int32
	next    atomic.Int32
	wg      sync.WaitGroup

	pmu      sync.Mutex
	panicked bool
	pval     any
}

// execChunk runs one claimed chunk, capturing a panic from the body so the
// dispatcher can re-raise it on the calling goroutine (a panic that kills
// a pool worker would otherwise take the process down or hang the
// barrier).
func (t *task) execChunk(c int32) {
	defer t.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			t.pmu.Lock()
			if !t.panicked {
				t.panicked, t.pval = true, r
			}
			t.pmu.Unlock()
		}
	}()
	lo := int(c) * t.grain
	hi := lo + t.grain
	if hi > t.n {
		hi = t.n
	}
	t.fn(int(c), lo, hi)
}

// participate claims and executes chunks until none remain, returning how
// many chunks this goroutine ran.
func (t *task) participate() int {
	done := 0
	for {
		c := t.next.Add(1) - 1
		if c >= t.nchunks {
			return done
		}
		t.execChunk(c)
		done++
	}
}

// workerPool is the process-wide set of persistent loop workers. Workers
// are started lazily the first time a loop actually needs help and are
// never torn down; an idle worker is parked in a channel receive.
type workerPool struct {
	tasks   chan *task
	mu      sync.Mutex
	started atomic.Int32
}

// poolQueueDepth bounds pending wake-ups. When the queue is full every
// worker is already busy, so additional wake-ups could not add
// parallelism anyway — the dispatcher just skips them and the caller
// absorbs the work through dynamic claiming.
const poolQueueDepth = 1024

var pool = workerPool{tasks: make(chan *task, poolQueueDepth)}

// ensure grows the pool to at least k workers.
func (p *workerPool) ensure(k int) {
	if int(p.started.Load()) >= k {
		return
	}
	p.mu.Lock()
	for int(p.started.Load()) < k {
		go p.worker()
		p.started.Add(1)
	}
	p.mu.Unlock()
}

func (p *workerPool) worker() {
	for t := range p.tasks {
		t.participate()
	}
}

// runN is the dispatcher behind every loop primitive: it executes
// fn(chunk, lo, hi) over [0, n) with dense chunk indexes in
// [0, numChunksFor(n, workers)), each index handed out exactly once.
// Parallelism is bounded by workers: the caller plus at most workers-1
// pool workers. A late pool worker that dequeues an already-finished task
// sees no chunks left and goes back to sleep.
func runN(n, workers int, fn func(chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minGrain {
		recordSeq()
		fn(0, 0, n)
		return
	}
	grain := grainFor(n, workers)
	nchunks := (n + grain - 1) / grain
	if nchunks <= 1 {
		recordSeq()
		fn(0, 0, n)
		return
	}
	runTask(&task{fn: fn, n: n, grain: grain, nchunks: int32(nchunks)}, workers)
}

// runTask dispatches a prepared task: wake up to workers-1 parked pool
// workers, claim chunks alongside them, wait out the generation barrier,
// then re-raise any panic captured from the loop body.
func runTask(t *task, workers int) {
	nchunks := int(t.nchunks)
	t.wg.Add(nchunks)
	helpers := workers - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	pool.ensure(helpers)
wake:
	for i := 0; i < helpers; i++ {
		select {
		case pool.tasks <- t:
		default:
			break wake
		}
	}
	mine := t.participate()
	t.wg.Wait()
	if statsEnabled.Load() {
		recordTask(nchunks, mine)
	}
	if t.panicked {
		panic(t.pval)
	}
}

// Do runs fn(i) for every i in [0, k) in parallel with one chunk per
// index and no sequential cutoff. It is meant for coarse-grained work —
// sorting runs, merging blocks, per-subgraph phases — where each index is
// substantial and k is small; For's grain policy would run such loops
// sequentially because k is far below the cutoff.
func Do(k int, fn func(i int)) {
	if k <= 0 {
		return
	}
	workers := Workers()
	if workers > k {
		workers = k
	}
	if k == 1 || workers == 1 {
		recordSeq()
		for i := 0; i < k; i++ {
			fn(i)
		}
		return
	}
	runTask(&task{
		fn:      func(c, lo, hi int) { fn(c) },
		n:       k,
		grain:   1,
		nchunks: int32(k),
	}, workers)
}
