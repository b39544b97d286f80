package graph

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// graphsEqual compares two graphs structurally (not via fingerprints, so
// fingerprint plumbing bugs can't mask content differences).
func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("NumVertices = %d, want %d", got.NumVertices(), want.NumVertices())
	}
	if got.NumArcs() != want.NumArcs() {
		t.Fatalf("NumArcs = %d, want %d", got.NumArcs(), want.NumArcs())
	}
	for v := 0; v < want.NumVertices(); v++ {
		gn, wn := got.Neighbors(int32(v)), want.Neighbors(int32(v))
		if len(gn) != len(wn) {
			t.Fatalf("vertex %d: degree %d, want %d", v, len(gn), len(wn))
		}
		for i := range wn {
			if gn[i] != wn[i] {
				t.Fatalf("vertex %d neighbor %d: %d, want %d", v, i, gn[i], wn[i])
			}
		}
	}
}

// binaryCases covers the structural corners: empty, no edges, paths,
// high-degree hubs, isolated tail vertices, and a dense-ish random graph.
func binaryCases() map[string]*Graph {
	star := NewBuilder(64)
	for v := int32(1); v < 50; v++ {
		star.AddEdge(0, v) // vertices 50..63 stay isolated
	}
	return map[string]*Graph{
		"empty":   {},
		"oneVert": FromEdges(1, nil),
		"noEdges": FromEdges(9, nil),
		"paper":   paperGraph(),
		"path50":  path(50),
		"star":    star.Build(),
		"random":  randomGraph(300, 1200, 7),
		"big":     randomGraph(5000, 40000, 3),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, g := range binaryCases() {
		for _, opt := range []BinaryOptions{
			{},
			{Compress: true},
			{Compress: true, BlockSize: 7},
			{Compress: true, BlockSize: 1},
		} {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g, opt); err != nil {
				t.Fatalf("%s %+v: WriteBinary: %v", name, opt, err)
			}
			got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s %+v: ReadBinary: %v", name, opt, err)
			}
			graphsEqual(t, got, g)
			if got.Fingerprint() != g.Fingerprint() {
				t.Fatalf("%s %+v: fingerprint %#x, want %#x", name, opt, got.Fingerprint(), g.Fingerprint())
			}
			// The carried fingerprint must match a from-scratch rehash.
			if fp := fingerprintArrays(got.NumVertices(), got.canonicalOff(), got.adj); fp != got.Fingerprint() {
				t.Fatalf("%s %+v: carried fingerprint %#x, rehash %#x", name, opt, got.Fingerprint(), fp)
			}
		}
	}
}

func TestOpenBinaryDispositions(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(500, 3000, 11)
	for _, tc := range []struct {
		name     string
		opt      BinaryOptions
		wantMmap bool
	}{
		{"raw", BinaryOptions{}, mmapSupported && hostLittleEndian},
		{"compressed", BinaryOptions{Compress: true}, false},
	} {
		p := filepath.Join(dir, tc.name+".scsr")
		if err := WriteBinaryFile(p, g, tc.opt); err != nil {
			t.Fatalf("%s: WriteBinaryFile: %v", tc.name, err)
		}
		bg, err := OpenBinary(p)
		if err != nil {
			t.Fatalf("%s: OpenBinary: %v", tc.name, err)
		}
		if bg.Mapped() != tc.wantMmap {
			t.Fatalf("%s: Mapped() = %v, want %v", tc.name, bg.Mapped(), tc.wantMmap)
		}
		if bg.Hdr.Fingerprint != g.Fingerprint() {
			t.Fatalf("%s: header fingerprint %#x, want %#x", tc.name, bg.Hdr.Fingerprint, g.Fingerprint())
		}
		graphsEqual(t, bg.Graph, g)
		if err := bg.Close(); err != nil {
			t.Fatalf("%s: Close: %v", tc.name, err)
		}
		if err := bg.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", tc.name, err)
		}
	}
}

func TestVerifyBinaryFile(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(400, 2500, 5)
	for _, opt := range []BinaryOptions{{}, {Compress: true}} {
		p := filepath.Join(dir, "ok.scsr")
		if err := WriteBinaryFile(p, g, opt); err != nil {
			t.Fatal(err)
		}
		hdr, err := VerifyBinaryFile(p)
		if err != nil {
			t.Fatalf("verify %+v: %v", opt, err)
		}
		if hdr.NumVertices != 400 || hdr.Fingerprint != g.Fingerprint() {
			t.Fatalf("verify %+v: header %+v", opt, hdr)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	g := randomGraph(200, 900, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Truncations at every section boundary and mid-section.
	for _, cut := range []int{0, 4, scsrHeaderSize - 1, scsrHeaderSize, scsrHeaderSize + 17, len(valid) - 1} {
		if _, err := ReadBinary(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Any header byte flip must be rejected (magic, fields, or check word).
	for pos := 0; pos < scsrHeaderSize; pos++ {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x41
		if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			t.Fatalf("header corruption at byte %d accepted", pos)
		}
	}
	// Adjacency id out of range.
	mut := append([]byte(nil), valid...)
	mut[len(mut)-1] = 0x7f // high byte of the last int32 neighbor
	if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
		t.Fatal("out-of-range adjacency id accepted")
	}

	// On-disk flips that keep structure valid must fail verification.
	dir := t.TempDir()
	p := filepath.Join(dir, "flip.scsr")
	mut = append([]byte(nil), valid...)
	mut[scsrHeaderSize+uintptrSafe(len(g.off))*8+2] ^= 1 // low bytes of an early neighbor id
	if err := os.WriteFile(p, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBinaryFile(p); err == nil {
		t.Fatal("content flip passed verification")
	}

	// A file whose size disagrees with the header is rejected by OpenBinary.
	p2 := filepath.Join(dir, "short.scsr")
	if err := os.WriteFile(p2, valid[:len(valid)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBinary(p2); err == nil {
		t.Fatal("size-mismatched file opened")
	}
}

// uintptrSafe is len() as int for offset arithmetic readability above.
func uintptrSafe(n int) int { return n }

func TestBuildBinaryExternalMatchesInMemory(t *testing.T) {
	// Deterministic edge list with duplicates and self loops, plus skew
	// (vertex 0 in many edges) to exercise bucket splitting.
	n := 3000
	var edges []Edge
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		u := int32(s % uint64(n))
		s = s*6364136223846793005 + 1442695040888963407
		v := int32(s % uint64(n))
		edges = append(edges, Edge{u, v})
		if i%5 == 0 {
			edges = append(edges, Edge{0, v}) // skew
		}
		if i%97 == 0 {
			edges = append(edges, Edge{u, u}) // self loop
		}
		if i%11 == 0 {
			edges = append(edges, edges[len(edges)-1]) // duplicate
		}
	}
	want := FromEdges(n, edges)
	dir := t.TempDir()

	for _, tc := range []struct {
		name string
		opt  ExtOptions
	}{
		{"raw", ExtOptions{ChunkArcs: 1 << 10, Buckets: 7}},
		{"rawOneBucket", ExtOptions{Buckets: 1}},
		{"compressed", ExtOptions{Compress: true, BlockSize: 64, ChunkArcs: 1 << 10, Buckets: 5}},
	} {
		extPath := filepath.Join(dir, tc.name+"-ext.scsr")
		memPath := filepath.Join(dir, tc.name+"-mem.scsr")
		tc.opt.TmpDir = dir
		hdr, err := BuildBinaryExternal(extPath, NewSliceStream(n, edges), tc.opt)
		if err != nil {
			t.Fatalf("%s: BuildBinaryExternal: %v", tc.name, err)
		}
		if err := WriteBinaryFile(memPath, want, BinaryOptions{Compress: tc.opt.Compress, BlockSize: tc.opt.BlockSize}); err != nil {
			t.Fatal(err)
		}
		ext, err := os.ReadFile(extPath)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := os.ReadFile(memPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ext, mem) {
			t.Fatalf("%s: external build differs from in-memory serialization (%d vs %d bytes)", tc.name, len(ext), len(mem))
		}
		if hdr.Fingerprint != want.Fingerprint() {
			t.Fatalf("%s: fingerprint %#x, want %#x", tc.name, hdr.Fingerprint, want.Fingerprint())
		}
		if _, err := VerifyBinaryFile(extPath); err != nil {
			t.Fatalf("%s: verify: %v", tc.name, err)
		}
	}
}

func TestBuildBinaryExternalRejectsOutOfRange(t *testing.T) {
	dir := t.TempDir()
	_, err := BuildBinaryExternal(filepath.Join(dir, "bad.scsr"),
		NewSliceStream(10, []Edge{{1, 2}, {3, 10}}), ExtOptions{TmpDir: dir})
	if err == nil {
		t.Fatal("edge endpoint == n accepted")
	}
	_, err = BuildBinaryExternal(filepath.Join(dir, "bad2.scsr"),
		NewSliceStream(10, []Edge{{-1, 2}}), ExtOptions{TmpDir: dir})
	if err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

func TestLoadFileDispatch(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(120, 700, 4)

	text := filepath.Join(dir, "g.txt")
	f, err := os.Create(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	metis := filepath.Join(dir, "g.graph")
	f, err = os.Create(metis)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMETIS(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	bin := filepath.Join(dir, "g.scsr")
	if err := WriteBinaryFile(bin, g, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{text, metis, bin} {
		got, err := LoadFile(p)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", p, err)
		}
		graphsEqual(t, got, g)
		if got.Fingerprint() != g.Fingerprint() {
			t.Fatalf("LoadFile(%s): fingerprint mismatch", p)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "absent.scsr")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestTextStreamMatchesRead(t *testing.T) {
	input := "# header comment\n\n7 4\n0 1\n# middle\n2 3\n3 2\n5 5\n-1 4\n4 5\n"
	ts, err := NewTextStream(bytes.NewReader([]byte(input)))
	if err != nil {
		t.Fatal(err)
	}
	if ts.NumVertices() != 7 || ts.m != 4 {
		t.Fatalf("header parsed as n=%d m=%d", ts.NumVertices(), ts.m)
	}
	b := NewBuilder(ts.NumVertices())
	buf := make([]Edge, 3) // tiny batches to exercise refill
	for {
		k, err := ts.Next(buf)
		b.AddEdges(buf[:k])
		if err != nil {
			break
		}
	}
	want, err := Read(bytes.NewReader([]byte(input)))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, b.Build(), want)
}

// SliceStream adapts an in-memory edge slice to EdgeStream, so small
// inputs can go through the external build for byte-identity checks.
type SliceStream struct {
	n     int
	edges []Edge
	pos   int
}

// NewSliceStream returns an EdgeStream over edges with n vertices.
func NewSliceStream(n int, edges []Edge) *SliceStream {
	return &SliceStream{n: n, edges: edges}
}

func (s *SliceStream) NumVertices() int { return s.n }

func (s *SliceStream) Next(buf []Edge) (int, error) {
	k := copy(buf, s.edges[s.pos:])
	s.pos += k
	if s.pos == len(s.edges) {
		return k, io.EOF
	}
	return k, nil
}
