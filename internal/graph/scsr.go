package graph

// The .scsr binary format: a versioned little-endian on-disk CSR designed
// so that the common case — raw adjacency on a little-endian host — loads
// zero-copy via mmap, with the Graph's offset and adjacency slices aliasing
// the mapped file. An alternative adjacency encoding stores per-vertex
// neighbor lists delta+varint-compressed in fixed vertex blocks that decode
// in parallel. See DESIGN.md § Binary graph format for the byte-for-byte
// layout.
//
//	[0:8)   magic "SCSR\r\n\x1a\n"
//	[8:12)  format version (uint32, = 1)
//	[12:16) flags (uint32; bit 0 = compressed adjacency)
//	[16:24) vertex count n (uint64)
//	[24:32) arc count = len(adj) (uint64, 2× undirected edges)
//	[32:40) content fingerprint (uint64, == Graph.Fingerprint)
//	[40:48) offset-section start (uint64, = 80)
//	[48:56) offset-section bytes (uint64, = (n+1)·8)
//	[56:64) adjacency-section start (uint64, = 80 + (n+1)·8)
//	[64:72) adjacency-section bytes (uint64)
//	[72:80) header check (uint64, FNV-1a of bytes [0:72))
//
// The offset section is n+1 little-endian int64 words. The raw adjacency
// section is the adjacency array as little-endian int32 words. The
// compressed adjacency section is:
//
//	[0:4)  block size B (uint32, vertices per block)
//	[4:8)  block count (uint32, = ceil(n/B))
//	[8:..) per-block payload end offsets (uint64 each, relative to payload)
//	[..:.) payload: per vertex, first neighbor as zigzag varint of
//	       (neighbor − vertex), then gaps as uvarint(diff − 1)
//
// Both section starts are multiples of 8, so the mapped words are aligned.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

const (
	scsrHeaderSize = 80
	scsrVersion    = 1

	scsrFlagCompressed = 1 << 0
	scsrKnownFlags     = scsrFlagCompressed

	// DefaultBlockSize is the compressed-adjacency block granularity:
	// vertices per independently decodable block. 1024 vertices keeps the
	// block index tiny (one uint64 per block) while giving the parallel
	// decoder thousands of work units on any graph large enough to matter.
	DefaultBlockSize = 1024
)

// scsrMagic opens every .scsr file. The PNG-style \r\n\x1a\n tail catches
// text-mode line-ending mangling and truncation-to-text corruption early.
var scsrMagic = [8]byte{'S', 'C', 'S', 'R', '\r', '\n', 0x1a, '\n'}

// BinaryHeader is the parsed fixed header of a .scsr file.
type BinaryHeader struct {
	Version     uint32
	Compressed  bool
	NumVertices int
	NumArcs     int64
	Fingerprint uint64
	OffStart    uint64
	OffBytes    uint64
	AdjStart    uint64
	AdjBytes    uint64
}

// BinaryOptions selects the adjacency encoding for WriteBinary.
type BinaryOptions struct {
	// Compress stores the adjacency delta+varint-compressed instead of as
	// raw int32 words. Compressed files cannot be mmap'd zero-copy; they
	// trade load-time parallel decode for 2-4× smaller files.
	Compress bool
	// BlockSize is the vertices-per-block granularity for Compress
	// (0 = DefaultBlockSize).
	BlockSize int
}

// fnv1aBytes hashes a byte slice with FNV-1a (the header check).
func fnv1aBytes(b []byte) uint64 {
	h := uint64(FNVOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// marshal serializes the header, computing the trailing check word.
func (h BinaryHeader) marshal() [scsrHeaderSize]byte {
	var b [scsrHeaderSize]byte
	copy(b[0:8], scsrMagic[:])
	le := binary.LittleEndian
	le.PutUint32(b[8:12], h.Version)
	var flags uint32
	if h.Compressed {
		flags |= scsrFlagCompressed
	}
	le.PutUint32(b[12:16], flags)
	le.PutUint64(b[16:24], uint64(h.NumVertices))
	le.PutUint64(b[24:32], uint64(h.NumArcs))
	le.PutUint64(b[32:40], h.Fingerprint)
	le.PutUint64(b[40:48], h.OffStart)
	le.PutUint64(b[48:56], h.OffBytes)
	le.PutUint64(b[56:64], h.AdjStart)
	le.PutUint64(b[64:72], h.AdjBytes)
	le.PutUint64(b[72:80], fnv1aBytes(b[:72]))
	return b
}

// parseBinaryHeader validates and decodes the fixed header. It checks the
// magic, the header check word, the version, the flag vocabulary, and the
// internal consistency of the section geometry — everything knowable
// without the file size.
func parseBinaryHeader(b []byte) (BinaryHeader, error) {
	if len(b) < scsrHeaderSize {
		return BinaryHeader{}, fmt.Errorf("graph: scsr header truncated: %d bytes, want %d", len(b), scsrHeaderSize)
	}
	b = b[:scsrHeaderSize]
	if [8]byte(b[0:8]) != scsrMagic {
		return BinaryHeader{}, fmt.Errorf("graph: not a .scsr file (bad magic %q)", b[0:8])
	}
	le := binary.LittleEndian
	if got, want := le.Uint64(b[72:80]), fnv1aBytes(b[:72]); got != want {
		return BinaryHeader{}, fmt.Errorf("graph: scsr header check mismatch: %#x, want %#x (corrupt header)", got, want)
	}
	h := BinaryHeader{
		Version:     le.Uint32(b[8:12]),
		Fingerprint: le.Uint64(b[32:40]),
		OffStart:    le.Uint64(b[40:48]),
		OffBytes:    le.Uint64(b[48:56]),
		AdjStart:    le.Uint64(b[56:64]),
		AdjBytes:    le.Uint64(b[64:72]),
	}
	if h.Version != scsrVersion {
		return BinaryHeader{}, fmt.Errorf("graph: scsr version %d not supported (want %d)", h.Version, scsrVersion)
	}
	flags := le.Uint32(b[12:16])
	if flags&^uint32(scsrKnownFlags) != 0 {
		return BinaryHeader{}, fmt.Errorf("graph: scsr has unknown flags %#x", flags)
	}
	h.Compressed = flags&scsrFlagCompressed != 0
	n := le.Uint64(b[16:24])
	arcs := le.Uint64(b[24:32])
	if n > math.MaxInt32 {
		return BinaryHeader{}, fmt.Errorf("graph: scsr vertex count %d exceeds int32 ids", n)
	}
	if arcs > math.MaxInt64/4 {
		return BinaryHeader{}, fmt.Errorf("graph: scsr arc count %d implausible", arcs)
	}
	h.NumVertices = int(n)
	h.NumArcs = int64(arcs)
	if h.NumArcs%2 != 0 {
		return BinaryHeader{}, fmt.Errorf("graph: scsr arc count %d is odd (arcs come in undirected pairs)", h.NumArcs)
	}
	if h.OffStart != scsrHeaderSize || h.OffBytes != uint64(n+1)*8 || h.AdjStart != h.OffStart+h.OffBytes {
		return BinaryHeader{}, fmt.Errorf("graph: scsr section geometry inconsistent with vertex count %d", n)
	}
	if !h.Compressed && h.AdjBytes != arcs*4 {
		return BinaryHeader{}, fmt.Errorf("graph: scsr raw adjacency is %d bytes, want %d for %d arcs", h.AdjBytes, arcs*4, arcs)
	}
	// Bound what a decode allocates and slices by the file itself: a
	// compressed section spends at least one payload byte per arc after
	// its 8-byte preamble, and the sections must end within int64.
	if h.Compressed && h.AdjBytes < 8+arcs {
		return BinaryHeader{}, fmt.Errorf("graph: scsr compressed adjacency of %d bytes cannot hold %d arcs", h.AdjBytes, arcs)
	}
	if h.AdjBytes > math.MaxInt64-h.AdjStart {
		return BinaryHeader{}, fmt.Errorf("graph: scsr adjacency size %d implausible", h.AdjBytes)
	}
	return h, nil
}

// newBinaryHeader returns the header of an n-vertex file with its section
// geometry laid out; the writer fills in the arc count, the adjacency
// section's size and the fingerprint.
func newBinaryHeader(n int, compressed bool) BinaryHeader {
	h := BinaryHeader{
		Version:     scsrVersion,
		Compressed:  compressed,
		NumVertices: n,
		OffStart:    scsrHeaderSize,
		OffBytes:    uint64(n+1) * 8,
	}
	h.AdjStart = h.OffStart + h.OffBytes
	return h
}

// totalBytes reports the exact file size the header describes.
func (h BinaryHeader) totalBytes() int64 { return int64(h.AdjStart + h.AdjBytes) }

// canonicalOff returns the graph's offset array in its serialized form:
// always n+1 entries, even for the zero-value empty graph.
func (g *Graph) canonicalOff() []int64 {
	if len(g.off) == 0 {
		return []int64{0}
	}
	return g.off
}

// ---------------------------------------------------------------------------
// Compressed adjacency encode/decode.

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen reports the encoded size of binary.PutUvarint(_, x).
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// encodedListSize reports the encoded byte size of one adjacency list.
func encodedListSize(v int32, ns []int32) int64 {
	if len(ns) == 0 {
		return 0
	}
	sz := int64(uvarintLen(zigzag(int64(ns[0]) - int64(v))))
	for k := 1; k < len(ns); k++ {
		sz += int64(uvarintLen(uint64(ns[k] - ns[k-1] - 1)))
	}
	return sz
}

// encodeListInto encodes one adjacency list, returning bytes written.
func encodeListInto(dst []byte, v int32, ns []int32) int {
	if len(ns) == 0 {
		return 0
	}
	p := binary.PutUvarint(dst, zigzag(int64(ns[0])-int64(v)))
	for k := 1; k < len(ns); k++ {
		p += binary.PutUvarint(dst[p:], uint64(ns[k]-ns[k-1]-1))
	}
	return p
}

// encodeAdjacency compresses g's adjacency into per-block payloads: a
// parallel size pass, a serial running sum over the block sizes (one per
// blockSize vertices), then a parallel encode pass into a single payload
// buffer. ends[b] is the payload end offset of block b.
func encodeAdjacency(g *Graph, blockSize int) (ends []uint64, payload []byte) {
	n := g.NumVertices()
	numBlocks := (n + blockSize - 1) / blockSize
	if numBlocks == 0 {
		return nil, nil
	}
	offs := make([]int64, numBlocks+1)
	par.For(numBlocks, func(b int) {
		lo, hi := b*blockSize, min((b+1)*blockSize, n)
		var sz int64
		for v := lo; v < hi; v++ {
			sz += encodedListSize(int32(v), g.Neighbors(int32(v)))
		}
		offs[b+1] = sz
	})
	for b := 0; b < numBlocks; b++ {
		offs[b+1] += offs[b]
	}
	payload = make([]byte, offs[numBlocks])
	ends = make([]uint64, numBlocks)
	par.For(numBlocks, func(b int) {
		lo, hi := b*blockSize, min((b+1)*blockSize, n)
		p := offs[b]
		for v := lo; v < hi; v++ {
			p += int64(encodeListInto(payload[p:offs[b+1]], int32(v), g.Neighbors(int32(v))))
		}
		ends[b] = uint64(offs[b+1])
	})
	return ends, payload
}

// decodeList decodes one vertex's list from buf into dst (len = degree),
// returning bytes consumed. Every decoded id is bounds-checked against n.
func decodeList(buf []byte, v int32, dst []int32, n int) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	u, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, fmt.Errorf("graph: scsr adjacency of vertex %d: bad first-neighbor varint", v)
	}
	p := sz
	prev := int64(v) + unzigzag(u)
	if prev < 0 || prev >= int64(n) {
		return 0, fmt.Errorf("graph: scsr adjacency of vertex %d: neighbor %d out of range [0,%d)", v, prev, n)
	}
	dst[0] = int32(prev)
	for k := 1; k < len(dst); k++ {
		u, sz := binary.Uvarint(buf[p:])
		if sz <= 0 {
			return 0, fmt.Errorf("graph: scsr adjacency of vertex %d: bad gap varint at neighbor %d", v, k)
		}
		p += sz
		prev += int64(u) + 1
		if prev >= int64(n) {
			return 0, fmt.Errorf("graph: scsr adjacency of vertex %d: neighbor %d out of range [0,%d)", v, prev, n)
		}
		dst[k] = int32(prev)
	}
	return p, nil
}

// decodeBlock decodes compressed block blk — the lists of vertices
// [lo, hi), stored in buf — into adj, which holds exactly those lists back
// to back (degrees from off). Every id is checked against n, and the lists
// must use up buf. The parallel decoder and the out-of-core builder's
// fingerprint pass both decode through it.
//
//lint:hotpath
func decodeBlock(blk int, buf []byte, off []int64, lo, hi int, adj []int32, n int) error {
	base := off[lo]
	p := 0
	for v := lo; v < hi; v++ {
		used, err := decodeList(buf[p:], int32(v), adj[off[v]-base:off[v+1]-base], n)
		if err != nil {
			return err
		}
		p += used
	}
	if p != len(buf) {
		return fmt.Errorf("graph: scsr block %d has %d trailing payload bytes", blk, len(buf)-p)
	}
	return nil
}

// decodeAdjacencyInto decodes the compressed payload into adj, one block
// per parallel task; degrees come from off, and block b's payload ends at
// the b-th little-endian word of index. Returns the error at the lowest
// failing block (deterministic under any worker count).
//
//lint:hotpath
func decodeAdjacencyInto(off []int64, adj []int32, n, blockSize int, index, payload []byte) error {
	return par.ForErr(len(index)/8, func(b int) error {
		lo, hi := b*blockSize, min((b+1)*blockSize, n)
		var pstart uint64
		if b > 0 {
			pstart = binary.LittleEndian.Uint64(index[(b-1)*8:])
		}
		pend := binary.LittleEndian.Uint64(index[b*8:])
		if pstart > pend || pend > uint64(len(payload)) {
			return fmt.Errorf("graph: scsr block %d payload [%d:%d) outside %d payload bytes", b, pstart, pend, len(payload))
		}
		return decodeBlock(b, payload[pstart:pend], off, lo, hi, adj[off[lo]:off[hi]], n)
	})
}

// blockIndexBytes is the size of a compressed section's prefix: block
// size, block count, and one payload end offset per block.
func blockIndexBytes(numBlocks int) uint64 { return 8 + 8*uint64(numBlocks) }

// parseCompressedIndex validates the compressed-adjacency section prefix
// and returns the block size, the block end-offset index (left in place;
// decodeAdjacencyInto checks each block's bounds) and the payload bytes.
func parseCompressedIndex(sec []byte, n int) (blockSize int, index, payload []byte, err error) {
	if len(sec) < 8 {
		return 0, nil, nil, fmt.Errorf("graph: scsr compressed section truncated (%d bytes)", len(sec))
	}
	le := binary.LittleEndian
	blockSize = int(le.Uint32(sec[0:4]))
	numBlocks := int(le.Uint32(sec[4:8]))
	if blockSize < 1 {
		return 0, nil, nil, fmt.Errorf("graph: scsr block size %d", blockSize)
	}
	if want := (n + blockSize - 1) / blockSize; numBlocks != want {
		return 0, nil, nil, fmt.Errorf("graph: scsr block count %d, want %d for %d vertices / block size %d", numBlocks, want, n, blockSize)
	}
	indexEnd := blockIndexBytes(numBlocks)
	if uint64(len(sec)) < indexEnd {
		return 0, nil, nil, fmt.Errorf("graph: scsr block index truncated")
	}
	index, payload = sec[8:indexEnd], sec[indexEnd:]
	if numBlocks > 0 {
		if last := le.Uint64(index[len(index)-8:]); last != uint64(len(payload)) {
			return 0, nil, nil, fmt.Errorf("graph: scsr block index ends at %d, payload is %d bytes", last, len(payload))
		}
	}
	return blockSize, index, payload, nil
}

// checkOffsets verifies the structural invariants of a loaded offset
// array: starts at zero, monotone, and accounts for exactly arcs entries.
func checkOffsets(off []int64, arcs int64) error {
	if len(off) == 0 || off[0] != 0 {
		return fmt.Errorf("graph: scsr offsets must start at 0")
	}
	n := len(off) - 1
	bad := par.Count(n, func(v int) bool { return off[v+1] < off[v] })
	if bad != 0 {
		return fmt.Errorf("graph: scsr offsets not monotone (%d descents)", bad)
	}
	if off[n] != arcs {
		return fmt.Errorf("graph: scsr offsets end at %d, header says %d arcs", off[n], arcs)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Writing.

// WriteBinary serializes g to w in the .scsr format. The stream is
// identical to what WriteBinaryFile produces; writing is sequential and
// allocation-bounded (raw adjacency is emitted from the graph's own arrays
// through a fixed-size chunk buffer).
func WriteBinary(w io.Writer, g *Graph, opt BinaryOptions) error {
	off := g.canonicalOff()
	hdr := newBinaryHeader(g.NumVertices(), opt.Compress)
	hdr.NumArcs = int64(len(g.adj))
	hdr.Fingerprint = g.Fingerprint()
	hdr.AdjBytes = uint64(len(g.adj)) * 4
	blockSize := opt.BlockSize
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	var ends []uint64
	var payload []byte
	if opt.Compress {
		ends, payload = encodeAdjacency(g, blockSize)
		hdr.AdjBytes = blockIndexBytes(len(ends)) + uint64(len(payload))
	}
	hb := hdr.marshal()
	if _, err := w.Write(hb[:]); err != nil {
		return err
	}
	if err := writeWordsLE(w, off); err != nil {
		return err
	}
	if !opt.Compress {
		return writeWordsLE(w, g.adj)
	}
	if err := writeBlockIndex(w, blockSize, ends); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeBlockIndex writes a compressed section's prefix (blockIndexBytes):
// WriteBinary and the out-of-core builder both emit it here.
func writeBlockIndex(w io.Writer, blockSize int, ends []uint64) error {
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[0:4], uint32(blockSize))
	binary.LittleEndian.PutUint32(pre[4:8], uint32(len(ends)))
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	return writeWordsLE(w, ends)
}

// WriteBinaryFile writes g to path as .scsr, syncing before returning.
func WriteBinaryFile(path string, g *Graph, opt BinaryOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := WriteBinary(bw, g, opt); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wordChunk is the staging-buffer size for endian-safe word serialization.
const wordChunk = 1 << 16

// writeWordsLE writes words as little-endian integers of their own width
// through a fixed staging buffer (no dependence on host byte order or
// heap layout).
func writeWordsLE[T int32 | int64 | uint64](w io.Writer, ws []T) error {
	width := binary.Size(T(0))
	buf := make([]byte, 0, wordChunk*width)
	for _, v := range ws {
		if width == 8 {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Reading.

// decodeBinary builds the graph that a whole .scsr file's bytes describe.
// Every load goes through it: OpenBinary's mapping or heap read,
// VerifyBinaryFile's heap read, and the tests' copies. b must be 8-aligned,
// as a mapping and alignedBytes are. Raw sections become the graph's
// arrays in place (see words), so a load holds one copy of the file; a
// compressed file's adjacency is decoded and its offsets copied out, so
// the graph does not keep b alive.
//
// Every load checks the header, that b is exactly as long as the header
// describes, and monotone offsets; compressed lists are range-checked as
// they decode. Raw adjacency ids are checked unless mapped is set: opening
// a mapped file stays O(n) and touches no adjacency page, which keeps an
// O(m) scan out of the daemon's boot (DESIGN.md §5d).
func decodeBinary(b []byte, mapped bool) (*Graph, error) {
	hdr, err := parseBinaryHeader(b)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != hdr.totalBytes() {
		return nil, fmt.Errorf("graph: scsr file is %d bytes, header describes %d", len(b), hdr.totalBytes())
	}
	off := words[int64](b[hdr.OffStart:hdr.AdjStart])
	if err := checkOffsets(off, hdr.NumArcs); err != nil {
		return nil, err
	}
	n, sec := hdr.NumVertices, b[hdr.AdjStart:]
	var adj []int32
	if hdr.Compressed {
		blockSize, index, payload, err := parseCompressedIndex(sec, n)
		if err != nil {
			return nil, err
		}
		off = slices.Clone(off)
		adj = make([]int32, hdr.NumArcs)
		if err := decodeAdjacencyInto(off, adj, n, blockSize, index, payload); err != nil {
			return nil, err
		}
	} else if adj = words[int32](sec); !mapped {
		if bad := par.Count(len(adj), func(i int) bool {
			return adj[i] < 0 || int(adj[i]) >= n
		}); bad != 0 {
			return nil, fmt.Errorf("graph: scsr adjacency has %d out-of-range ids", bad)
		}
	}
	return &Graph{off: off, adj: adj, fp: hdr.Fingerprint}, nil
}

// readBinaryFile loads the .scsr file f, which readFileHeader found to be
// size bytes long, from one read into 8-aligned heap memory.
func readBinaryFile(f *os.File, size int64) (*Graph, error) {
	b := alignedBytes(size)
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, fmt.Errorf("graph: scsr read: %w", err)
	}
	return decodeBinary(b, false)
}

// BinaryGraph is a Graph loaded from a .scsr file, plus the parsed header
// and — when the adjacency was mapped zero-copy — the live mapping.
type BinaryGraph struct {
	*Graph
	Hdr BinaryHeader

	mapping []byte
}

// Mapped reports whether the graph's arrays alias a file mapping (true
// only for raw adjacency on a little-endian host with working mmap).
func (bg *BinaryGraph) Mapped() bool { return bg.mapping != nil }

// Close releases the mapping, if any. The embedded Graph must not be used
// afterwards; Close nils it so stale use fails fast instead of faulting on
// unmapped memory. Heap-backed BinaryGraphs ignore Close.
func (bg *BinaryGraph) Close() error {
	if bg.mapping == nil {
		return nil
	}
	m := bg.mapping
	bg.mapping = nil
	bg.Graph = nil
	return munmapBytes(m)
}

// readFileHeader reads and checks the header of a .scsr file opened at
// its start — magic, check word, version, section geometry — and that the
// file is exactly as long as the header describes. The header is returned
// whenever it parsed, also with a size error.
func readFileHeader(f *os.File) (BinaryHeader, error) {
	fi, err := f.Stat()
	if err != nil {
		return BinaryHeader{}, err
	}
	var hb [scsrHeaderSize]byte
	if _, err := io.ReadFull(f, hb[:]); err != nil {
		return BinaryHeader{}, fmt.Errorf("graph: scsr header truncated: %w", err)
	}
	hdr, err := parseBinaryHeader(hb[:])
	if err != nil {
		return BinaryHeader{}, err
	}
	if fi.Size() != hdr.totalBytes() {
		return hdr, fmt.Errorf("graph: scsr file is %d bytes, header describes %d", fi.Size(), hdr.totalBytes())
	}
	return hdr, nil
}

// OpenBinary opens a .scsr file. Raw adjacency on a little-endian host is
// mapped zero-copy: the returned graph's offset and adjacency arrays alias
// the page cache, loading is O(n) (offsets are checked; adjacency pages
// are not touched), and the kernel shares the pages across processes.
// Compressed adjacency (or a big-endian host, or an mmap failure) is
// loaded from one heap read of the file. The header's fingerprint is
// carried onto the graph, so Fingerprint() never re-hashes a
// binary-loaded graph.
func OpenBinary(path string) (*BinaryGraph, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr, err := readFileHeader(f)
	if err != nil {
		return nil, err
	}
	size := hdr.totalBytes()

	if !hdr.Compressed && hostLittleEndian && mmapSupported {
		if m, merr := mmapRO(f, int(size)); merr == nil {
			g, err := decodeBinary(m, true)
			if err != nil {
				munmapBytes(m)
				return nil, err
			}
			observeBinaryOpen("mmap", size, 0)
			return &BinaryGraph{Graph: g, Hdr: hdr, mapping: m}, nil
		}
		// mmap failed (exotic fs, resource limits): fall through to a read.
	}

	g, err := readBinaryFile(f, size)
	if err != nil {
		return nil, err
	}
	disposition := "read"
	if hdr.Compressed {
		disposition = "decode"
	}
	observeBinaryOpen(disposition, size, time.Since(start))
	return &BinaryGraph{Graph: g, Hdr: hdr}, nil
}

// VerifyBinaryFile fully validates a .scsr file: header magic, check word
// and version, section geometry against the file size, monotone offsets,
// full structural invariants of the decoded graph (sorted symmetric
// loop-free adjacency), and a recomputed fingerprint matched against the
// header. The file is read into the heap deliberately, so verification
// does not depend on the mmap fast path it certifies.
func VerifyBinaryFile(path string) (BinaryHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return BinaryHeader{}, err
	}
	defer f.Close()
	hdr, err := readFileHeader(f)
	if err != nil {
		return hdr, err
	}
	g, err := readBinaryFile(f, hdr.totalBytes())
	if err != nil {
		return hdr, err
	}
	if err := g.Validate(); err != nil {
		return hdr, err
	}
	if got := fingerprintArrays(g.NumVertices(), g.canonicalOff(), g.adj); got != hdr.Fingerprint {
		return hdr, fmt.Errorf("graph: scsr fingerprint mismatch: content hashes to %#016x, header says %#016x", got, hdr.Fingerprint)
	}
	return hdr, nil
}

// ---------------------------------------------------------------------------
// Path dispatch and load telemetry.

// IsBinaryPath reports whether path names a binary CSR file by extension.
func IsBinaryPath(path string) bool {
	ext := filepath.Ext(path)
	return ext == ".scsr" || ext == ".bin"
}

// LoadFile loads a graph from path, selecting the format by extension:
// .scsr/.bin binary CSR (zero-copy mmap when possible), .graph/.metis
// METIS adjacency, anything else the text edge list. For mmap-backed
// loads the mapping is retained for the life of the process — LoadFile is
// the entry point for corpus and CLI graphs, which live until exit. Use
// OpenBinary directly when the mapping must be released.
func LoadFile(path string) (*Graph, error) {
	if IsBinaryPath(path) {
		bg, err := OpenBinary(path)
		if err != nil {
			return nil, err
		}
		return bg.Graph, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	g, err := ReadAuto(path, f)
	if err != nil {
		return nil, err
	}
	format := "text"
	if ext := filepath.Ext(path); ext == ".graph" || ext == ".metis" {
		format = "metis"
	}
	if fi, serr := f.Stat(); serr == nil {
		mLoadBytes.With(format).Add(float64(fi.Size()))
	}
	mDecodeSeconds.Observe(time.Since(start).Seconds())
	return g, nil
}

// I/O-path telemetry on telemetry.Default: bytes loaded per on-disk
// format, binary opens by disposition, and materialization latency.
var (
	mLoadBytes = telemetry.Default.CounterVec(
		"symbreak_graph_load_bytes_total",
		"Graph bytes loaded from disk, by on-disk format (text, metis, scsr).", "format")
	mOpens = telemetry.Default.CounterVec(
		"symbreak_graph_open_total",
		"Binary graph opens by adjacency disposition: mmap (zero-copy mapped), decode (varint adjacency decoded to heap), read (raw file read once into the heap, its sections used in place).", "disposition")
	mDecodeSeconds = telemetry.Default.Histogram(
		"symbreak_graph_decode_seconds",
		"Wall time materializing a graph from disk into memory (not observed for zero-copy mmap opens).", nil)
)

// observeBinaryOpen publishes the disposition and size of one binary open.
func observeBinaryOpen(disposition string, bytes int64, d time.Duration) {
	mOpens.With(disposition).Inc()
	mLoadBytes.With("scsr").Add(float64(bytes))
	if disposition != "mmap" {
		mDecodeSeconds.Observe(d.Seconds())
	}
}
