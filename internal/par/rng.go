package par

// Deterministic, splittable random number generation. All randomized
// algorithms in this repository (RAND decomposition, Luby's MIS, LMAX edge
// weights, GM priorities) draw either per-element hashes — Hash64(seed, i),
// which is trivially parallel and reproducible regardless of worker count —
// or a sequential stream from RNG when order does not matter.

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 mixes a seed with an index into a uniform 64-bit value. Distinct
// (seed, i) pairs give independent-looking outputs; the function is pure, so
// parallel loops using it are deterministic under any schedule.
func Hash64(seed uint64, i int64) uint64 {
	s := seed + uint64(i)*0x9e3779b97f4a7c15
	return splitmix64(&s)
}

// Hash2 mixes a seed with two indices (e.g. an edge's endpoints) into a
// uniform 64-bit value, symmetric in the two indices so both directions of
// an undirected edge hash identically.
func Hash2(seed uint64, a, b int64) uint64 {
	if a > b {
		a, b = b, a
	}
	h := Hash64(seed, a)
	return Hash64(h, b)
}

// HashRange maps Hash64(seed, i) to [0, n).
func HashRange(seed uint64, i int64, n int) int {
	if n <= 1 {
		return 0
	}
	// Multiply-shift range reduction (Lemire); avoids modulo bias enough for
	// our load-balancing uses.
	h := Hash64(seed, i)
	return int((h >> 32) * uint64(n) >> 32)
}

// RNG is a small deterministic sequential generator (SplitMix64). The zero
// value is a valid generator seeded with 0; use NewRNG for an explicit seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 { return splitmix64(&r.state) }

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("par: RNG.Intn with non-positive n")
	}
	return int((r.Uint64() >> 32) * uint64(n) >> 32)
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
