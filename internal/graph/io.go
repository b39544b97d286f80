package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The interchange format is a plain text edge list:
//
//	# comment lines start with '#'
//	<numVertices> <numEdges>
//	<u> <v>
//	...
//
// one line per undirected edge, 0-based vertex ids. Duplicates and self
// loops are tolerated on read (the builder drops them), matching the
// paper's dataset cleanup.
//
// Both directions avoid per-edge formatting machinery: Write appends
// digits into a reused buffer with strconv.AppendInt, and Read parses
// lines byte-by-byte from the bufio window without allocating per line.
// TextStream is the incremental form of Read, feeding the out-of-core
// binary builder without materializing the edge list.

// Write serializes g in the edge-list format.
func Write(w io.Writer, g *Graph) error {
	buf := make([]byte, 0, 1<<20)
	n := g.NumVertices()
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, g.NumEdges(), 10)
	buf = append(buf, '\n')
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(int32(u)) {
			if v > int32(u) {
				buf = strconv.AppendInt(buf, int64(u), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendInt(buf, int64(v), 10)
				buf = append(buf, '\n')
			}
		}
		// One flush check per vertex: a vertex's forward edges fit well
		// within the slack left below the buffer's capacity.
		if len(buf) >= 1<<20-64 {
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

// Read parses the edge-list format into a Graph. Vertex ids beyond the
// header's count grow the graph (Builder semantics); negative ids and self
// loops are dropped.
func Read(r io.Reader) (*Graph, error) {
	ts, err := NewTextStream(r)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(ts.NumVertices())
	buf := make([]Edge, 1<<14)
	for {
		k, err := ts.Next(buf)
		b.AddEdges(buf[:k])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// maxLineBytes bounds a single input line (matching the historical scanner
// buffer); anything longer is malformed input, not a graph.
const maxLineBytes = 1 << 20

// TextStream reads an edge-list file incrementally: the header is parsed
// on construction, then Next yields edge batches without holding the file
// in memory. It is the text-side source for BuildBinaryExternal. Edges
// with negative endpoints are dropped (as Read does); ids at or above the
// header's vertex count are passed through, so strict consumers (the
// external builder) reject what Builder-backed Read would grow to fit.
type TextStream struct {
	r    *bufio.Reader
	line int
	n    int
	m    int64 // declared edge count (informational)
	done bool
}

// NewTextStream wraps r and parses the header line.
func NewTextStream(r io.Reader) (*TextStream, error) {
	t := &TextStream{r: bufio.NewReaderSize(r, maxLineBytes)}
	for {
		ln, rerr := t.r.ReadSlice('\n')
		if len(ln) > 0 {
			t.line++
			a, c, ok, perr := t.parseLine(ln)
			if perr != nil {
				return nil, perr
			}
			if ok {
				if a < 0 || c < 0 {
					return nil, fmt.Errorf("graph: line %d: negative header", t.line)
				}
				t.n = int(a)
				t.m = c
				if rerr == io.EOF {
					t.done = true
				}
				return t, nil
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				return nil, fmt.Errorf("graph: empty input")
			}
			return nil, t.lineErr(rerr)
		}
	}
}

// NumVertices reports the header's vertex count.
func (t *TextStream) NumVertices() int { return t.n }

// Next fills buf with parsed edges and returns the count, with io.EOF
// (possibly alongside a final batch) once the input is exhausted.
func (t *TextStream) Next(buf []Edge) (int, error) {
	if t.done {
		return 0, io.EOF
	}
	k := 0
	for k < len(buf) {
		ln, rerr := t.r.ReadSlice('\n')
		if len(ln) > 0 {
			t.line++
			a, c, ok, perr := t.parseLine(ln)
			if perr != nil {
				return k, perr
			}
			if ok && a >= 0 && c >= 0 {
				buf[k] = Edge{int32(a), int32(c)}
				k++
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				t.done = true
				return k, io.EOF
			}
			return k, t.lineErr(rerr)
		}
	}
	return k, nil
}

// lineErr decorates a read error with the position being parsed.
func (t *TextStream) lineErr(err error) error {
	if err == bufio.ErrBufferFull {
		return fmt.Errorf("graph: line %d longer than %d bytes", t.line+1, maxLineBytes)
	}
	return fmt.Errorf("graph: line %d: %w", t.line+1, err)
}

// parseLine parses one raw line (including any trailing newline) into two
// integer fields. ok is false for blank and '#'-comment lines.
func (t *TextStream) parseLine(ln []byte) (a, c int64, ok bool, err error) {
	// Trim the line ending and surrounding whitespace.
	end := len(ln)
	if end > 0 && ln[end-1] == '\n' {
		end--
	}
	for end > 0 && isSpaceByte(ln[end-1]) {
		end--
	}
	i := 0
	for i < end && isSpaceByte(ln[i]) {
		i++
	}
	if i == end || ln[i] == '#' {
		return 0, 0, false, nil
	}
	a, i, err = t.parseIntField(ln[:end], i)
	if err != nil {
		return 0, 0, false, err
	}
	j := i
	for j < end && isSpaceByte(ln[j]) {
		j++
	}
	if j == i || j == end {
		return 0, 0, false, fmt.Errorf("graph: line %d: want two fields, got %q", t.line, ln[:end])
	}
	c, j, err = t.parseIntField(ln[:end], j)
	if err != nil {
		return 0, 0, false, err
	}
	for j < end && isSpaceByte(ln[j]) {
		j++
	}
	if j != end {
		return 0, 0, false, fmt.Errorf("graph: line %d: want two fields, got %q", t.line, ln[:end])
	}
	return a, c, true, nil
}

// parseIntField parses a signed decimal integer within int32 range
// starting at s[i], returning the value and the index past it.
func (t *TextStream) parseIntField(s []byte, i int) (int64, int, error) {
	start := i
	neg := false
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	var v int64
	digits := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int64(s[i]-'0')
		digits++
		if v > math.MaxInt32+1 {
			return 0, 0, fmt.Errorf("graph: line %d: value %q out of int32 range", t.line, s[start:])
		}
		i++
	}
	if digits == 0 {
		return 0, 0, fmt.Errorf("graph: line %d: invalid number %q", t.line, s[start:])
	}
	if neg {
		v = -v
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, 0, fmt.Errorf("graph: line %d: value %d out of int32 range", t.line, v)
	}
	return v, i, nil
}

// isSpaceByte matches the whitespace bytes the former strings.Fields-based
// parser tolerated between columns.
func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\v' || b == '\f'
}
