package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The persistent worker pool. Loop primitives no longer spawn goroutines
// per call: a call packages its body into a task, offers it to the pool,
// and participates itself. The index space is split into chunks (sized by
// the adaptive grain policy below) that executors claim with an atomic
// counter, so a straggler chunk cannot serialize the tail the way the old
// static one-chunk-per-worker split did on skewed workloads. The
// completion barrier is a chunk count carried by the task — each task is
// one generation of work; workers outlive every generation. Solvers issue
// loops back to back, so both ends of a loop spin briefly before they
// sleep, as an OpenMP runtime's idle threads do: a worker that ran out of
// chunks polls the offer slot for spinWindow before it parks on the wake
// channel, and the caller at the barrier polls the task's count of
// unfinished chunks for spinWindow before it parks in the WaitGroup.
//
// The pool holds one offer slot: the newest loop's task, with a count of
// helper slots. A caller fills the slot, then signals a one-deep wake
// channel that carries no task. A worker takes a helper slot by atomic
// decrement; the taker of the last clears the offer, and an earlier taker
// passes the wake-up on. No wake-up is lost: a worker parks only after it
// saw the slot empty, and a caller signals only after it filled the slot,
// so some worker reads the slot after every fill. The caller withdraws its
// offer once no chunk is left to claim. A newer loop's offer replaces an
// older one's: the older loop keeps the helpers it has, and its caller
// claims the rest.

// Chunking policy. Loops shorter than seqCutoff run inline on the caller:
// even a pooled hand-off costs more than the loop body. Above the cutoff
// the grain targets chunksPerWorker chunks per worker — enough slack for
// dynamic claiming to absorb skew — but never below minAdaptiveGrain
// elements, so tiny chunks cannot drown the claim counter in contention.
const (
	// seqCutoff is the sequential cutoff: loops over fewer elements run
	// inline.
	seqCutoff = 1024

	// chunksPerWorker is the oversubscription factor of the adaptive
	// grain: each worker's share of the index space is split this many
	// ways so dynamic claiming can rebalance skewed chunks.
	chunksPerWorker = 4

	// minAdaptiveGrain floors the adaptive chunk size.
	minAdaptiveGrain = 256

	// spinWindow is how long a worker polls for its next task, and a
	// caller for its barrier, before parking: longer than the gap between
	// a solver's back-to-back loops, short enough that a worker idle
	// between solves stops burning its CPU. Of 0, 20, 50, 200µs and 1ms,
	// 20–50µs gave the best paper-grid throughput on a 2-vCPU Xeon VM.
	spinWindow = 50 * time.Microsecond
)

// grainFor returns the adaptive chunk size for an n-element loop run by
// workers executors. Callers guarantee workers >= 2 and n >= seqCutoff.
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
	if workers <= 1 || n < seqCutoff {
		return 1
	}
	g := grainFor(n, workers)
	return (n + g - 1) / g
}

// task is one parallel loop in flight: a generation of chunks claimed via
// an atomic counter by the caller and any pool workers that took one of
// its helper slots. The WaitGroup counts chunks (not goroutines) and is
// the barrier; left counts the same chunks for the caller to spin on
// before it waits. Nothing is spawned on the task's behalf.
type task struct {
	fn      func(chunk, lo, hi int)
	n       int
	grain   int
	nchunks int32
	next    atomic.Int32
	left    atomic.Int32
	slots   atomic.Int32 // helper slots not yet taken
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
	// Done before the decrement, so a caller that saw left reach zero
	// finds the WaitGroup already released.
	defer t.left.Add(-1)
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
// never torn down; an idle worker spins on the offer slot for spinWindow,
// then parks on the wake channel.
type workerPool struct {
	offer    atomic.Pointer[task] // the newest loop's offer, nil when none
	wake     chan struct{}        // one deep: a token means "read the offer"
	mu       sync.Mutex
	started  atomic.Int32
	spinning atomic.Int32 // workers and callers inside spin
}

var pool = workerPool{wake: make(chan struct{}, 1)}

// signal leaves a wake-up token unless one is already waiting.
func (p *workerPool) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// take claims a helper slot of the offered task, or returns nil when the
// slot is empty or its helper slots are all taken.
func (p *workerPool) take() *task {
	t := p.offer.Load()
	if t == nil {
		return nil
	}
	switch left := t.slots.Add(-1); {
	case left < 0:
		return nil
	case left == 0:
		p.offer.CompareAndSwap(t, nil)
	default:
		p.signal()
	}
	return t
}

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

// worker parks only after it saw the slot empty.
func (p *workerPool) worker() {
	for {
		t := p.take()
		if t == nil {
			p.spin(func() bool { t = p.take(); return t != nil })
		}
		if t == nil {
			<-p.wake
			continue
		}
		t.participate()
	}
}

// testHookSpinHold, when set, is asked each time a spin's window has
// passed whether the spin should go on. Tests set it to make a spin
// outlast an event that the scheduler would otherwise time.
var testHookSpinHold atomic.Pointer[func() bool]

// spin polls done until it returns true or spinWindow passes, yielding
// the processor between clock checks. It returns at once when GOMAXPROCS
// is 1, or when GOMAXPROCS goroutines already spin: a spinner holds a
// processor, and more spinners than processors would only delay the
// goroutines that have chunks to run.
func (p *workerPool) spin(done func() bool) {
	procs := int32(runtime.GOMAXPROCS(0))
	for {
		s := p.spinning.Load()
		if procs <= 1 || s >= procs {
			return
		}
		if p.spinning.CompareAndSwap(s, s+1) {
			break
		}
	}
	defer p.spinning.Add(-1)
	deadline := time.Now().Add(spinWindow)
	for {
		for i := 0; i < 64; i++ {
			if done() {
				return
			}
		}
		if time.Now().After(deadline) {
			if hold := testHookSpinHold.Load(); hold == nil || !(*hold)() {
				return
			}
		}
		runtime.Gosched()
	}
}

// runN is the dispatcher behind every loop primitive: it executes
// fn(chunk, lo, hi) over [0, n) with dense chunk indexes in
// [0, numChunksFor(n, workers)), each index handed out exactly once.
// Parallelism is bounded by workers: the caller plus at most workers-1
// pool workers. A loop that splits into one chunk runs inline.
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
	if workers <= 1 || n < seqCutoff {
		recordSeq()
		fn(0, 0, n)
		return
	}
	// n >= seqCutoff and workers >= 2 give at least four chunks.
	grain := grainFor(n, workers)
	runTask(&task{fn: fn, n: n, grain: grain, nchunks: int32((n + grain - 1) / grain)}, workers)
}

// runTask dispatches a prepared task: offer min(workers-1, chunks-1)
// helper slots to the pool, claim chunks alongside the helpers, withdraw
// the offer, wait out the generation barrier, then re-raise any panic
// captured from the loop body.
func runTask(t *task, workers int) {
	nchunks := int(t.nchunks)
	t.wg.Add(nchunks)
	t.left.Store(t.nchunks)
	helpers := min(workers, nchunks) - 1
	pool.ensure(helpers)
	t.slots.Store(int32(helpers))
	pool.offer.Store(t)
	pool.signal()
	mine := t.participate()
	pool.offer.CompareAndSwap(t, nil)
	if t.left.Load() > 0 {
		pool.spin(func() bool { return t.left.Load() == 0 })
	}
	t.wg.Wait()
	if statsEnabled.Load() {
		recordTask(nchunks, mine)
	}
	if t.panicked {
		panic(t.pval)
	}
}

// Do runs fn(i) for every i in [0, k) with one chunk per index and no
// sequential cutoff. It is meant for coarse-grained work — sorting runs,
// merging blocks, per-subgraph phases — where each index is substantial
// and k is small; For's grain policy would run such loops sequentially
// because k is far below the cutoff. The indices run in parallel only as
// far as idle workers take the loop's offer: when every worker is busy, or
// a newer loop's offer replaced this one, the caller runs the indices left
// itself, so fn(i) must never wait for another index.
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
