package par

import "sync/atomic"

// Bitset is a fixed-size bitset safe for concurrent Set, TestAndSet and
// Test through atomic word operations; bits are never cleared. The zero
// value is unusable; create with NewBitset.
type Bitset struct {
	words []uint64
}

// NewBitset returns a cleared bitset holding n bits.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64)}
}

// Set sets bit i. It is safe for concurrent use.
func (b *Bitset) Set(i int) {
	w, mask := i>>6, uint64(1)<<uint(i&63)
	for {
		old := atomic.LoadUint64(&b.words[w])
		if old&mask != 0 || atomic.CompareAndSwapUint64(&b.words[w], old, old|mask) {
			return
		}
	}
}

// TestAndSet sets bit i and reports whether this call changed it from 0 to 1.
// It is the atomic claim operation used by BFS frontiers.
func (b *Bitset) TestAndSet(i int) bool {
	w, mask := i>>6, uint64(1)<<uint(i&63)
	for {
		old := atomic.LoadUint64(&b.words[w])
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&b.words[w], old, old|mask) {
			return true
		}
	}
}

// Test reports bit i. It is safe for concurrent use with Set and
// TestAndSet, with the usual racy-read semantics of a snapshot.
func (b *Bitset) Test(i int) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(uint64(1)<<uint(i&63)) != 0
}
