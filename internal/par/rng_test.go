package par

import (
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 2) != Hash64(1, 2) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 2) == Hash64(1, 3) || Hash64(1, 2) == Hash64(2, 2) {
		t.Fatal("Hash64 collides on adjacent inputs (suspicious)")
	}
}

func TestHash2Symmetric(t *testing.T) {
	if err := quick.Check(func(seed uint64, a, b int64) bool {
		return Hash2(seed, a, b) == Hash2(seed, b, a)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashRangeInBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, i int64, n uint8) bool {
		k := int(n)%100 + 1
		v := HashRange(seed, i, k)
		return v >= 0 && v < k
	}, nil); err != nil {
		t.Fatal(err)
	}
	if HashRange(5, 9, 1) != 0 || HashRange(5, 9, 0) != 0 {
		t.Fatal("HashRange degenerate n")
	}
}

func TestHashRangeRoughlyUniform(t *testing.T) {
	const k, trials = 10, 100000
	counts := make([]int, k)
	for i := 0; i < trials; i++ {
		counts[HashRange(42, int64(i), k)]++
	}
	for part, c := range counts {
		// Each bucket should hold ~10% ± 2% absolute.
		if c < trials/k*8/10 || c > trials/k*12/10 {
			t.Fatalf("bucket %d has %d of %d draws", part, c, trials)
		}
	}
}

func TestRNGStreamsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between differently seeded streams", same)
	}
}

func TestRNGIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestZeroValueRNGUsable(t *testing.T) {
	var r RNG
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero-value RNG emits zeros")
	}
}
