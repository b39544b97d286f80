package par

import (
	"math/bits"
	"testing"
)

// countBits reports the number of set bits in b.
func countBits(b *Bitset) int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestBitsetBasic(t *testing.T) {
	b := NewBitset(130)
	if len(b.words) != 3 {
		t.Fatalf("130 bits in %d words", len(b.words))
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set on fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if c := countBits(b); c != 6 {
		t.Fatalf("%d bits set, want 6", c)
	}
}

func TestBitsetTestAndSetClaimsOnce(t *testing.T) {
	n := 1 << 16
	b := NewBitset(n)
	wins := make([]int32, n)
	// Many goroutines race to claim each bit; exactly one must win.
	For(n*4, func(j int) {
		i := j % n
		if b.TestAndSet(i) {
			wins[i]++
		}
	})
	for i, w := range wins {
		if w != 1 {
			t.Fatalf("bit %d claimed %d times", i, w)
		}
	}
	if c := countBits(b); c != n {
		t.Fatalf("%d bits set, want %d", c, n)
	}
}

func TestBitsetConcurrentSetDisjoint(t *testing.T) {
	// Bits in the same word set concurrently must all land.
	n := 64 * 64
	b := NewBitset(n)
	For(n, func(i int) { b.Set(i) })
	if c := countBits(b); c != n {
		t.Fatalf("%d bits set, want %d", c, n)
	}
}
