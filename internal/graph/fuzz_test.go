package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Fuzz targets for the two parsers. Under plain `go test` the seed corpus
// runs as regression tests; `go test -fuzz=FuzzReadEdgeList ./internal/graph`
// explores further. The invariant: parsers never panic, and any
// successfully parsed graph is structurally valid and round-trips.

func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"3 2\n0 1\n1 2\n",
		"# comment\n\n1 0\n",
		"2 1\n0 0\n",
		"4 2\n0 3\n3 0\n",
		"9999999999999 1\n0 1\n",
		"3 2\n0 -1\n",
		"a b\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parsed graph invalid: %v", verr)
		}
		var buf bytes.Buffer
		if werr := Write(&buf, g); werr != nil {
			t.Fatalf("write failed: %v", werr)
		}
		g2, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("round trip parse failed: %v", rerr)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzTextBinaryRoundTrip drives the text parser into both binary
// encodings and back through every load path, pinning the whole chain to
// the content fingerprint: whatever the text parser accepts must load
// bit-identically from a raw file through OpenBinary (mapped on unix),
// from compressed files through OpenBinary, and from each file through
// the heap read that VerifyBinaryFile and hosts without mmap take.
func FuzzTextBinaryRoundTrip(f *testing.F) {
	seeds := []string{
		"3 2\n0 1\n1 2\n",
		"1 0\n",
		"0 0\n",
		"5 3\n0 4\n4 0\n2 2\n",
		"2000 1\n0 1999\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		want := g.Fingerprint()
		p := filepath.Join(t.TempDir(), "g.scsr")
		for _, opt := range []BinaryOptions{{}, {Compress: true}, {Compress: true, BlockSize: 3}} {
			var buf bytes.Buffer
			if werr := WriteBinary(&buf, g, opt); werr != nil {
				t.Fatalf("%+v: write failed: %v", opt, werr)
			}
			if werr := os.WriteFile(p, buf.Bytes(), 0o644); werr != nil {
				t.Fatal(werr)
			}
			bg, err := OpenBinary(p)
			if err != nil {
				t.Fatalf("OpenBinary %+v: %v", opt, err)
			}
			if got := fingerprintArrays(bg.NumVertices(), bg.canonicalOff(), bg.adj); got != want {
				t.Fatalf("OpenBinary %+v: round trip fingerprint %#x, want %#x", opt, got, want)
			}
			if err := bg.Close(); err != nil {
				t.Fatal(err)
			}
			// The header carries want, so VerifyBinaryFile's recomputed
			// fingerprint checks the arrays its heap read loaded.
			if _, err := VerifyBinaryFile(p); err != nil {
				t.Fatalf("VerifyBinaryFile %+v: %v", opt, err)
			}
		}
	})
}

// FuzzReadBinary throws arbitrary bytes at the .scsr decoder, as a heap
// read hands them over: it must reject or parse without panicking, and
// anything it accepts must re-serialize to a file that decodes back to
// the same content.
func FuzzReadBinary(f *testing.F) {
	addGraph := func(g *Graph, opt BinaryOptions) {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g, opt); err == nil {
			f.Add(buf.Bytes())
		}
	}
	addGraph(&Graph{}, BinaryOptions{})
	addGraph(paperGraph(), BinaryOptions{})
	addGraph(paperGraph(), BinaryOptions{Compress: true})
	addGraph(path(40), BinaryOptions{Compress: true, BlockSize: 4})
	f.Add([]byte("SCSR\r\n\x1a\n garbage"))
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := readBinaryBytes(in)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if werr := WriteBinary(&buf, g, BinaryOptions{}); werr != nil {
			t.Fatalf("re-serialize failed: %v", werr)
		}
		g2, rerr := readBinaryBytes(buf.Bytes())
		if rerr != nil {
			t.Fatalf("re-parse failed: %v", rerr)
		}
		got := fingerprintArrays(g2.NumVertices(), g2.canonicalOff(), g2.adj)
		want := fingerprintArrays(g.NumVertices(), g.canonicalOff(), g.adj)
		if got != want {
			t.Fatalf("re-serialized content fingerprint %#x, want %#x", got, want)
		}
	})
}

func FuzzReadMETIS(f *testing.F) {
	seeds := []string{
		"3 2\n2\n1 3\n2\n",
		"% c\n1 0\n\n",
		"2 1 011\n2\n1\n",
		"2 1\n3\n1\n",
		"0 0\n",
		"4 4\n2 3\n1 3\n1 2 4\n3\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMETIS(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parsed graph invalid: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteMETIS(&buf, g); werr != nil {
			t.Fatalf("write failed: %v", werr)
		}
		g2, rerr := ReadMETIS(&buf)
		if rerr != nil {
			t.Fatalf("round trip parse failed: %v", rerr)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed the graph")
		}
	})
}
