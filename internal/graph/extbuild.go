package graph

// Out-of-core .scsr construction. BuildBinaryExternal turns a streamed
// edge list into a binary CSR file without ever materializing the graph:
// arcs are radix-partitioned into temporary spill files by source-vertex
// range, then each bucket is loaded, sorted, deduplicated, and appended to
// the output adjacency in vertex order. Peak memory is bounded by the
// bucket chunk size (plus the n+1 offset array), not by the graph, so a
// 10^8-edge graph builds in a few hundred MB of RSS. Buckets whose spill
// exceeds the chunk budget are recursively re-split by vertex sub-range,
// which keeps skewed (power-law) degree distributions within budget.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/par"
)

// EdgeStream produces undirected edges in batches. Implementations report
// the vertex-id space up front; Next fills buf and returns the count,
// with io.EOF (possibly alongside a final batch) when exhausted.
type EdgeStream interface {
	NumVertices() int
	Next(buf []Edge) (int, error)
}

// ExtOptions tunes BuildBinaryExternal.
type ExtOptions struct {
	// TmpDir holds the spill files ("" = os.TempDir()). It needs room for
	// 16 bytes per undirected edge (both arc directions, before dedup).
	TmpDir string
	// ChunkArcs caps how many arcs are held in memory while sorting one
	// bucket (0 = 1<<24, a 128 MiB arc buffer). The peak RSS of a build is
	// roughly 8·ChunkArcs bytes plus the (n+1)·8-byte offset array.
	ChunkArcs int
	// Buckets is the initial source-vertex partition fan-out (0 = 64).
	Buckets int
	// Compress selects the delta+varint adjacency encoding.
	Compress bool
	// BlockSize is the compressed block granularity (0 = DefaultBlockSize).
	BlockSize int
}

// arc is one directed half of an undirected edge in a spill file: 8 bytes
// on disk, little-endian src then dst.
type arc struct{ src, dst int32 }

// spillBucket is one temporary run of arcs covering vertices [lo, hi).
type spillBucket struct {
	lo, hi int
	path   string
	w      *bufio.Writer
	f      *os.File
	count  int64
	buf    [8]byte
}

func (sb *spillBucket) add(a arc) error {
	binary.LittleEndian.PutUint32(sb.buf[0:4], uint32(a.src))
	binary.LittleEndian.PutUint32(sb.buf[4:8], uint32(a.dst))
	if _, err := sb.w.Write(sb.buf[:]); err != nil {
		return err
	}
	sb.count++
	return nil
}

func (sb *spillBucket) finish() error {
	if err := sb.w.Flush(); err != nil {
		sb.f.Close()
		return err
	}
	return sb.f.Close()
}

// extBuilder carries the state of one BuildBinaryExternal run.
type extBuilder struct {
	n         int
	compress  bool
	blockSize int
	chunkArcs int
	tmpDir    string
	spillSeq  int

	out        *os.File
	w          *bufio.Writer // positioned in the payload region
	off        []int64       // n+1 entries, filled bucket by bucket
	ends       []uint64      // compressed: per-block payload end offsets
	payloadPos int64         // bytes appended to the payload region

	byteBuf []byte  // staging for raw adjacency words / block encodes
	nsBuf   []int32 // one vertex's neighbor list during encoding
}

func (b *extBuilder) newSpill(lo, hi int) (*spillBucket, error) {
	b.spillSeq++
	path := fmt.Sprintf("%s%cspill-%06d", b.tmpDir, os.PathSeparator, b.spillSeq)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spillBucket{lo: lo, hi: hi, path: path, f: f, w: bufio.NewWriterSize(f, 1<<18)}, nil
}

// minWidth is the narrowest vertex range a bucket may be split down to:
// compressed blocks must not straddle processing units, so splits stop at
// one block; raw buckets can go all the way to a single vertex.
func (b *extBuilder) minWidth() int {
	if b.compress {
		return b.blockSize
	}
	return 1
}

// roundWidth rounds a bucket width up so range boundaries stay on
// compressed-block boundaries.
func (b *extBuilder) roundWidth(w int) int {
	if w < 1 {
		w = 1
	}
	if b.compress && w%b.blockSize != 0 {
		w += b.blockSize - w%b.blockSize
	}
	return w
}

// BuildBinaryExternal streams src into a .scsr file at path using bounded
// memory (see ExtOptions.ChunkArcs). Self loops are dropped and duplicate
// edges deduplicated, matching FromEdges; vertex ids outside [0, n) are an
// error. The resulting file is byte-for-byte identical to
// WriteBinaryFile(path, FromEdges(n, edges), ...) for the same input.
func BuildBinaryExternal(path string, src EdgeStream, opt ExtOptions) (BinaryHeader, error) {
	n := src.NumVertices()
	if n < 0 || n > math.MaxInt32 {
		return BinaryHeader{}, fmt.Errorf("graph: external build: vertex count %d out of range", n)
	}
	b := &extBuilder{
		n:         n,
		compress:  opt.Compress,
		blockSize: opt.BlockSize,
		chunkArcs: opt.ChunkArcs,
	}
	if b.blockSize <= 0 {
		b.blockSize = DefaultBlockSize
	}
	if b.chunkArcs <= 0 {
		b.chunkArcs = 1 << 24
	}
	buckets := opt.Buckets
	if buckets <= 0 {
		buckets = 64
	}

	tmp, err := os.MkdirTemp(opt.TmpDir, "scsr-spill-")
	if err != nil {
		return BinaryHeader{}, err
	}
	defer os.RemoveAll(tmp)
	b.tmpDir = tmp

	spills, err := b.spillPhase(src, buckets)
	if err != nil {
		return BinaryHeader{}, err
	}

	hdr, err := b.emitPhase(path, spills)
	if err != nil {
		os.Remove(path)
		return BinaryHeader{}, err
	}
	return hdr, nil
}

// spillPhase partitions the stream's arcs into per-vertex-range run files.
func (b *extBuilder) spillPhase(src EdgeStream, buckets int) ([]*spillBucket, error) {
	width := b.roundWidth((b.n + buckets - 1) / buckets)
	var spills []*spillBucket
	if b.n > 0 {
		for lo := 0; lo < b.n; lo += width {
			sb, err := b.newSpill(lo, min(lo+width, b.n))
			if err != nil {
				return nil, err
			}
			spills = append(spills, sb)
		}
	}
	route := func(a arc) error {
		return spills[int(a.src)/width].add(a)
	}

	buf := make([]Edge, 1<<16)
	for {
		k, serr := src.Next(buf)
		for _, e := range buf[:k] {
			if e.U == e.V {
				continue // self loops are ignored, as in FromEdges
			}
			if e.U < 0 || int(e.U) >= b.n || e.V < 0 || int(e.V) >= b.n {
				return nil, fmt.Errorf("graph: external build: edge {%d, %d} outside [0, %d)", e.U, e.V, b.n)
			}
			if err := route(arc{e.U, e.V}); err != nil {
				return nil, err
			}
			if err := route(arc{e.V, e.U}); err != nil {
				return nil, err
			}
		}
		if serr == io.EOF {
			break
		}
		if serr != nil {
			return nil, serr
		}
	}
	for _, sb := range spills {
		if err := sb.finish(); err != nil {
			return nil, err
		}
	}
	return spills, nil
}

// emitPhase writes the output file: reserves the header, offset, and block
// index regions, appends adjacency payload bucket by bucket, then patches
// the deferred sections and header (with a streaming fingerprint pass over
// the written adjacency).
func (b *extBuilder) emitPhase(path string, spills []*spillBucket) (BinaryHeader, error) {
	numBlocks := 0
	if b.compress {
		numBlocks = (b.n + b.blockSize - 1) / b.blockSize
		b.ends = make([]uint64, numBlocks)
	}
	b.off = make([]int64, b.n+1)

	hdr := newBinaryHeader(b.n, b.compress)
	payloadStart := int64(hdr.AdjStart)
	if b.compress {
		payloadStart += int64(blockIndexBytes(numBlocks))
	}

	out, err := os.Create(path)
	if err != nil {
		return BinaryHeader{}, err
	}
	defer out.Close()
	b.out = out
	if _, err := out.Seek(payloadStart, io.SeekStart); err != nil {
		return BinaryHeader{}, err
	}
	b.w = bufio.NewWriterSize(out, 1<<20)
	b.byteBuf = make([]byte, 0, 1<<20)

	for _, sb := range spills {
		if err := b.processBucket(sb); err != nil {
			return BinaryHeader{}, err
		}
	}
	if err := b.flushBytes(); err != nil {
		return BinaryHeader{}, err
	}
	if err := b.w.Flush(); err != nil {
		return BinaryHeader{}, err
	}

	hdr.NumArcs = b.off[b.n]
	hdr.AdjBytes = uint64(payloadStart+b.payloadPos) - hdr.AdjStart

	// Patch the deferred sections, now that their contents are known.
	if _, err := out.Seek(int64(hdr.OffStart), io.SeekStart); err != nil {
		return BinaryHeader{}, err
	}
	sw := bufio.NewWriterSize(out, 1<<20)
	if err := writeWordsLE(sw, b.off); err != nil {
		return BinaryHeader{}, err
	}
	if b.compress {
		if err := writeBlockIndex(sw, b.blockSize, b.ends); err != nil {
			return BinaryHeader{}, err
		}
	}
	if err := sw.Flush(); err != nil {
		return BinaryHeader{}, err
	}

	fp, err := b.streamFingerprint(int64(hdr.AdjStart))
	if err != nil {
		return BinaryHeader{}, err
	}
	hdr.Fingerprint = fp

	hb := hdr.marshal()
	if _, err := out.WriteAt(hb[:], 0); err != nil {
		return BinaryHeader{}, err
	}
	if err := out.Sync(); err != nil {
		return BinaryHeader{}, err
	}
	return hdr, nil
}

// processBucket sorts and emits one spill run, recursively splitting runs
// that exceed the in-memory arc budget.
func (b *extBuilder) processBucket(sb *spillBucket) error {
	if sb.count > int64(b.chunkArcs) && sb.hi-sb.lo > b.minWidth() {
		return b.splitBucket(sb)
	}
	arcs, err := readArcsFile(sb.path, sb.count)
	if err != nil {
		return err
	}
	os.Remove(sb.path)
	par.SortSlice(arcs, func(a, c arc) bool {
		if a.src != c.src {
			return a.src < c.src
		}
		return a.dst < c.dst
	})
	// Dedup in place (duplicates of an arc always share a source vertex,
	// so per-bucket dedup is global dedup).
	k := 0
	for i := range arcs {
		if i > 0 && arcs[i] == arcs[i-1] {
			continue
		}
		arcs[k] = arcs[i]
		k++
	}
	arcs = arcs[:k]
	return b.emitBucket(sb.lo, sb.hi, arcs)
}

// splitBucket redistributes an oversized run into narrower vertex
// sub-ranges and processes those in order.
func (b *extBuilder) splitBucket(sb *spillBucket) error {
	width := sb.hi - sb.lo
	need := int((sb.count + int64(b.chunkArcs) - 1) / int64(b.chunkArcs))
	// Split twice as fine as the count suggests: skewed runs concentrate
	// arcs in few sub-ranges, and an extra level of recursion costs a full
	// re-read of the run.
	subWidth := b.roundWidth((width + 2*need - 1) / (2 * need))
	if subWidth >= width {
		subWidth = b.roundWidth(width / 2)
	}
	if subWidth < b.minWidth() {
		subWidth = b.minWidth()
	}

	var subs []*spillBucket
	for lo := sb.lo; lo < sb.hi; lo += subWidth {
		nb, err := b.newSpill(lo, min(lo+subWidth, sb.hi))
		if err != nil {
			return err
		}
		subs = append(subs, nb)
	}
	f, err := os.Open(sb.path)
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var raw [8]byte
	for i := int64(0); i < sb.count; i++ {
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			f.Close()
			return fmt.Errorf("graph: external build: spill run truncated: %w", err)
		}
		a := arc{
			src: int32(binary.LittleEndian.Uint32(raw[0:4])),
			dst: int32(binary.LittleEndian.Uint32(raw[4:8])),
		}
		if err := subs[(int(a.src)-sb.lo)/subWidth].add(a); err != nil {
			f.Close()
			return err
		}
	}
	f.Close()
	os.Remove(sb.path)
	for _, nb := range subs {
		if err := nb.finish(); err != nil {
			return err
		}
	}
	for _, nb := range subs {
		if err := b.processBucket(nb); err != nil {
			return err
		}
	}
	return nil
}

// emitBucket appends the sorted, deduplicated arcs of vertices [lo, hi) to
// the payload and fills their offset entries.
func (b *extBuilder) emitBucket(lo, hi int, arcs []arc) error {
	// Offsets first: one pass over the runs.
	i := 0
	for v := lo; v < hi; v++ {
		start := i
		for i < len(arcs) && arcs[i].src == int32(v) {
			i++
		}
		b.off[v+1] = b.off[v] + int64(i-start)
	}
	if i != len(arcs) {
		return fmt.Errorf("graph: external build: %d arcs outside bucket [%d, %d)", len(arcs)-i, lo, hi)
	}

	if !b.compress {
		for _, a := range arcs {
			b.byteBuf = binary.LittleEndian.AppendUint32(b.byteBuf, uint32(a.dst))
			if len(b.byteBuf) >= cap(b.byteBuf)-4 {
				if err := b.flushBytes(); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Compressed: encode block by block. Bucket boundaries are multiples
	// of blockSize, so [lo, hi) covers whole blocks (the last may clamp
	// at n).
	i = 0
	for blockLo := lo; blockLo < hi; blockLo += b.blockSize {
		blockHi := min(blockLo+b.blockSize, hi)
		for v := blockLo; v < blockHi; v++ {
			deg := int(b.off[v+1] - b.off[v])
			b.nsBuf = b.nsBuf[:0]
			for k := 0; k < deg; k++ {
				b.nsBuf = append(b.nsBuf, arcs[i].dst)
				i++
			}
			need := int(encodedListSize(int32(v), b.nsBuf))
			for cap(b.byteBuf)-len(b.byteBuf) < need {
				if len(b.byteBuf) == 0 {
					b.byteBuf = make([]byte, 0, 2*need)
					break
				}
				if err := b.flushBytes(); err != nil {
					return err
				}
			}
			used := encodeListInto(b.byteBuf[len(b.byteBuf):len(b.byteBuf)+need], int32(v), b.nsBuf)
			b.byteBuf = b.byteBuf[:len(b.byteBuf)+used]
		}
		b.ends[blockLo/b.blockSize] = uint64(b.payloadPos + int64(len(b.byteBuf)))
	}
	return nil
}

// flushBytes drains the staging buffer into the payload writer.
func (b *extBuilder) flushBytes() error {
	if len(b.byteBuf) == 0 {
		return nil
	}
	if _, err := b.w.Write(b.byteBuf); err != nil {
		return err
	}
	b.payloadPos += int64(len(b.byteBuf))
	b.byteBuf = b.byteBuf[:0]
	return nil
}

// streamFingerprint computes the content fingerprint of the written file
// by re-reading the adjacency section in bounded chunks (the offsets are
// still in memory). The result is identical to Graph.Fingerprint of the
// equivalent in-memory graph.
func (b *extBuilder) streamFingerprint(adjStart int64) (uint64, error) {
	fs := newFingerprintState(b.n)
	fs.mixInt64s(b.off)
	if _, err := b.out.Seek(adjStart, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(b.out, 1<<20)

	if !b.compress {
		raw := alignedBytes(4 << 20)
		for remaining := b.off[b.n] * 4; remaining > 0; {
			chunk := min(int64(len(raw)), remaining)
			if _, err := io.ReadFull(r, raw[:chunk]); err != nil {
				return 0, err
			}
			fs.mixInt32s(words[int32](raw[:chunk]))
			remaining -= chunk
		}
		return fs.sum(), nil
	}

	// Compressed: skip the block index, then decode block by block into a
	// reusable buffer, mixing the lists in order.
	if _, err := io.CopyN(io.Discard, r, int64(blockIndexBytes(len(b.ends)))); err != nil {
		return 0, err
	}
	var payload []byte
	var adj []int32
	var prevEnd uint64
	for blk, end := range b.ends {
		payload = slices.Grow(payload[:0], int(end-prevEnd))[:end-prevEnd]
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, err
		}
		prevEnd = end
		lo, hi := blk*b.blockSize, min((blk+1)*b.blockSize, b.n)
		adj = slices.Grow(adj[:0], int(b.off[hi]-b.off[lo]))[:b.off[hi]-b.off[lo]]
		if err := decodeBlock(blk, payload, b.off, lo, hi, adj, b.n); err != nil {
			return 0, err
		}
		fs.mixInt32s(adj)
	}
	return fs.sum(), nil
}

// readArcsFile loads a spill run, decoding straight into the arc array
// through a small chunk buffer (no whole-file byte copy).
func readArcsFile(path string, count int64) ([]arc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	arcs := make([]arc, count)
	r := bufio.NewReaderSize(f, 1<<20)
	raw := make([]byte, 1<<16)
	i := 0
	for i < len(arcs) {
		chunk := (len(arcs) - i) * 8
		if chunk > len(raw) {
			chunk = len(raw)
		}
		if _, err := io.ReadFull(r, raw[:chunk]); err != nil {
			return nil, fmt.Errorf("graph: external build: spill run truncated: %w", err)
		}
		for p := 0; p < chunk; p += 8 {
			arcs[i] = arc{
				src: int32(binary.LittleEndian.Uint32(raw[p:])),
				dst: int32(binary.LittleEndian.Uint32(raw[p+4:])),
			}
			i++
		}
	}
	return arcs, nil
}
