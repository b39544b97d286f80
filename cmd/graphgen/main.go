// Command graphgen writes a dataset analog (or a raw generator output) to
// a graph file that cmd/decomp and cmd/symbreak can read back: a text edge
// list, METIS adjacency, or the binary CSR format (.scsr, optionally
// compressed). It also transcodes between the formats and, for inputs too
// large to hold in memory, builds .scsr files out-of-core from a streamed
// generator or text source.
//
// Usage:
//
//	graphgen -out lp1.txt lp1
//	graphgen -out kron.scsr -format bin -generator kron -n 65536 -param 16
//	graphgen -convert kron.txt -out kron.scsr -compress
//	graphgen -oocore -out big.scsr -generator kron -n 8388608 -param 12
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	out := flag.String("out", "", "output file (default stdout; required for -format bin with -oocore)")
	format := flag.String("format", "", "output format: text, metis, or bin (default: by -out extension, else text)")
	compress := flag.Bool("compress", false, "with -format bin: delta+varint-compress the adjacency")
	convert := flag.String("convert", "", "transcode an existing graph file instead of generating")
	oocore := flag.Bool("oocore", false, "build the .scsr out-of-core (streamed source, bounded memory; requires -out)")
	chunk := flag.Int("chunk", 0, "out-of-core: arcs held in memory per sort chunk (0 = default)")
	tmpdir := flag.String("tmpdir", "", "out-of-core: spill directory (default: system temp)")
	generator := flag.String("generator", "", "raw generator: kron, rgg, road, prefattach, community, banded, lp, web")
	n := flag.Int("n", 100000, "raw generator size")
	param := flag.Float64("param", 8, "raw generator shape parameter (edge factor / avg degree / out degree)")
	seed := flag.Uint64("seed", 1, "seed")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	flag.Parse()

	f := resolveFormat(*format, *out)

	if *oocore {
		if f != "bin" {
			fatal(fmt.Errorf("-oocore only builds binary CSR output (use -format bin or a .scsr -out)"))
		}
		if *out == "" {
			fatal(fmt.Errorf("-oocore needs -out"))
		}
		hdr, err := runOutOfCore(*out, *convert, *generator, *n, *param, *seed,
			graph.ExtOptions{TmpDir: *tmpdir, ChunkArcs: *chunk, Compress: *compress})
		if err != nil {
			fatal(err)
		}
		summarize(*out, hdr.NumVertices, hdr.NumArcs/2)
		return
	}

	var g *graph.Graph
	switch {
	case *convert != "":
		var err error
		g, err = graph.LoadFile(*convert)
		if err != nil {
			fatal(err)
		}
	case *generator != "":
		var err error
		g, err = rawGenerate(*generator, *n, *param, *seed)
		if err != nil {
			fatal(err)
		}
	case flag.NArg() == 1:
		spec, ok := dataset.Get(flag.Arg(0))
		if !ok {
			fatal(fmt.Errorf("unknown instance %q (known: %v)", flag.Arg(0), dataset.Names()))
		}
		g = spec.Build(*scale, *seed)
	default:
		fatal(fmt.Errorf("need an instance name, -generator, or -convert"))
	}

	if err := writeOut(*out, f, g, *compress); err != nil {
		fatal(err)
	}
	summarize(*out, g.NumVertices(), g.NumEdges())
}

// resolveFormat picks the output format: explicit -format wins, then the
// -out extension.
func resolveFormat(format, out string) string {
	if format != "" {
		switch format {
		case "text", "metis", "bin":
			return format
		}
		fatal(fmt.Errorf("unknown format %q (want text, metis, or bin)", format))
	}
	if graph.IsBinaryPath(out) {
		return "bin"
	}
	switch filepath.Ext(out) {
	case ".graph", ".metis":
		return "metis"
	}
	return "text"
}

// writeOut serializes g to path (stdout when empty) in the given format.
func writeOut(path, format string, g *graph.Graph, compress bool) error {
	if format == "bin" && path != "" {
		return graph.WriteBinaryFile(path, g, graph.BinaryOptions{Compress: compress})
	}
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "bin":
		return graph.WriteBinary(w, g, graph.BinaryOptions{Compress: compress})
	case "metis":
		return graph.WriteMETIS(w, g)
	default:
		return graph.Write(w, g)
	}
}

// runOutOfCore builds a .scsr via the external builder from either a text
// edge-list source (-convert) or the streaming kron generator.
func runOutOfCore(out, convert, generator string, n int, param float64, seed uint64, opt graph.ExtOptions) (graph.BinaryHeader, error) {
	switch {
	case convert != "":
		if graph.IsBinaryPath(convert) || filepath.Ext(convert) == ".graph" || filepath.Ext(convert) == ".metis" {
			return graph.BinaryHeader{}, fmt.Errorf("-oocore -convert streams text edge lists only (got %s)", convert)
		}
		f, err := os.Open(convert)
		if err != nil {
			return graph.BinaryHeader{}, err
		}
		defer f.Close()
		ts, err := graph.NewTextStream(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return graph.BinaryHeader{}, err
		}
		return graph.BuildBinaryExternal(out, ts, opt)
	case generator == "kron":
		kscale := 0
		for (1 << uint(kscale)) < n {
			kscale++
		}
		return graph.BuildBinaryExternal(out, gen.NewKronStream(kscale, int(param), seed), opt)
	case generator != "":
		return graph.BinaryHeader{}, fmt.Errorf("generator %q has no streaming form; -oocore supports kron (or -convert from text)", generator)
	default:
		return graph.BinaryHeader{}, fmt.Errorf("-oocore needs -generator kron or -convert")
	}
}

// summarize prints the tool's stderr summary: sizes, output bytes, and the
// process peak RSS (the out-of-core path's headline number).
func summarize(out string, nv int, ne int64) {
	line := fmt.Sprintf("graphgen: wrote |V|=%d |E|=%d", nv, ne)
	if out != "" {
		if fi, err := os.Stat(out); err == nil {
			line += fmt.Sprintf(" bytes=%d", fi.Size())
		}
	}
	if hwm := peakRSSKB(); hwm > 0 {
		line += fmt.Sprintf(" peakRSS=%dkB", hwm)
	}
	fmt.Fprintln(os.Stderr, line)
}

// peakRSSKB reports the process high-water-mark RSS in kB from
// /proc/self/status, or 0 where unavailable (non-Linux).
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), "%d", &kb); err == nil {
				return kb
			}
		}
	}
	return 0
}

func rawGenerate(name string, n int, param float64, seed uint64) (*graph.Graph, error) {
	switch name {
	case "kron":
		scale := 0
		for (1 << uint(scale)) < n {
			scale++
		}
		return gen.Kron(scale, int(param), seed), nil
	case "rgg":
		return gen.RGG(n, gen.DegreeRadius(n, param), seed), nil
	case "road":
		side := 1
		for side*side < n {
			side++
		}
		return gen.Road(side, side, 4, 0.3, seed), nil
	case "prefattach":
		return gen.PrefAttach(n, int(param), seed), nil
	case "community":
		return gen.Community(n, 25, int(param), 1, seed), nil
	case "banded":
		return gen.Banded(n, 20, int(param), 0.35, seed), nil
	case "lp":
		return gen.LP(n, seed), nil
	case "web":
		return gen.Web(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
