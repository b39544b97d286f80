package graph

// FNVOffset64 and fnvPrime64 are the FNV-1a parameters; the hash is
// computed inline (rather than through hash/fnv) so the CSR arrays are
// mixed word-at-a-time without a byte-serialization pass.
const (
	FNVOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// FNVMix64 folds one 64-bit word into an FNV-1a state byte by byte, least
// significant byte first. Start from FNVOffset64. Graph fingerprints and
// core's solution digests both mix their words with it.
func FNVMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Fingerprint returns a 64-bit FNV-1a content hash of the graph: the
// vertex count followed by the CSR offset and adjacency arrays. Because a
// Graph is immutable and its CSR form is canonical (adjacency sorted
// ascending, each undirected edge stored twice), equal graphs — however
// they were constructed — have equal fingerprints, and the value is stable
// across processes and worker counts. The serving layer uses it as the
// graph component of solve-cache and request-coalescing keys.
//
// Graphs loaded from a .scsr file carry the header's fingerprint and
// return it without re-hashing; graphstat -validate recomputes and
// cross-checks it.
func (g *Graph) Fingerprint() uint64 {
	if g.fp != 0 {
		return g.fp
	}
	// canonicalOff makes the zero-value empty graph hash identically to a
	// built empty graph (off = [0]) — and to its serialized form.
	return fingerprintArrays(g.NumVertices(), g.canonicalOff(), g.adj)
}

// fingerprintArrays is the fingerprint computation proper, shared with the
// binary format's validation path (which must recompute the hash from raw
// sections regardless of any cached value).
func fingerprintArrays(n int, off []int64, adj []int32) uint64 {
	h := FNVMix64(uint64(FNVOffset64), uint64(n))
	for _, o := range off {
		h = FNVMix64(h, uint64(o))
	}
	for _, v := range adj {
		h = FNVMix64(h, uint64(v))
	}
	return h
}

// fingerprintState is the incremental form of fingerprintArrays for
// producers that stream the adjacency section (the external builder): mix
// the vertex count, then every offset word, then every adjacency word, in
// order.
type fingerprintState struct{ h uint64 }

func newFingerprintState(n int) *fingerprintState {
	return &fingerprintState{h: FNVMix64(uint64(FNVOffset64), uint64(n))}
}

func (s *fingerprintState) mixInt64s(ws []int64) {
	for _, w := range ws {
		s.h = FNVMix64(s.h, uint64(w))
	}
}

func (s *fingerprintState) mixInt32s(ws []int32) {
	for _, w := range ws {
		s.h = FNVMix64(s.h, uint64(w))
	}
}

func (s *fingerprintState) sum() uint64 { return s.h }
