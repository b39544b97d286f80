package par

import (
	"reflect"
	"sync"
)

// Scratch is a reusable arena of []T buffers for per-chunk scratch state.
// The iterative solvers and the reduction/scan/compaction primitives in
// this package need a small slice (one slot per chunk) on every call, once
// per round — allocating it each time made the allocator and GC a fixed
// tax on every measured hot loop. A Scratch hands back previously used
// buffers instead.
//
// Buffers returned by Get have unspecified contents; callers that need
// zeros must clear them (e.g. with Fill). Get and Put are safe for
// concurrent use. The zero value is ready to use.
type Scratch[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// scratchMaxFree bounds how many buffers an arena retains; beyond that,
// Put keeps the larger of the incoming buffer and the smallest retained
// one, so arenas converge on the biggest working-set sizes.
const scratchMaxFree = 8

// Get returns a length-n buffer, reusing a retained one when its capacity
// suffices. Contents are unspecified.
func (s *Scratch[T]) Get(n int) []T {
	s.mu.Lock()
	for i := len(s.free) - 1; i >= 0; i-- {
		if cap(s.free[i]) >= n {
			b := s.free[i]
			last := len(s.free) - 1
			s.free[i] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
			s.mu.Unlock()
			return b[:n]
		}
	}
	s.mu.Unlock()
	return make([]T, n)
}

// Put returns a buffer to the arena for reuse. The caller must not touch
// b afterwards.
func (s *Scratch[T]) Put(b []T) {
	if cap(b) == 0 {
		return
	}
	s.mu.Lock()
	if len(s.free) < scratchMaxFree {
		s.free = append(s.free, b[:0])
	} else {
		smallest := 0
		for i := 1; i < len(s.free); i++ {
			if cap(s.free[i]) < cap(s.free[smallest]) {
				smallest = i
			}
		}
		if cap(b) > cap(s.free[smallest]) {
			s.free[smallest] = b[:0]
		}
	}
	s.mu.Unlock()
}

// i64Scratch backs the int64 per-chunk slots of ExclusiveSum32 and
// Filter.
var i64Scratch Scratch[int64]

// typedScratch maps a type's identity to the shared Scratch instance used
// by the generic primitives (Reduce), so they stop allocating per call
// without a per-instantiation package variable (which Go generics cannot
// express).
var typedScratch sync.Map // reflect.Type -> *Scratch[T]

// scratchFor returns the process-wide arena for element type T.
func scratchFor[T any]() *Scratch[T] {
	key := reflect.TypeOf((*T)(nil))
	if v, ok := typedScratch.Load(key); ok {
		return v.(*Scratch[T])
	}
	v, _ := typedScratch.LoadOrStore(key, &Scratch[T]{})
	return v.(*Scratch[T])
}
