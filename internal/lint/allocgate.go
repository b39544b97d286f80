package lint

import (
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Allocgate fails the build when an annotated hot path gains a heap
// allocation. Functions marked `//lint:hotpath` (solver kernels,
// frontier.EdgeMap, the scsr decode loop) are compiled with the
// compiler's own escape analysis (`go build -gcflags=-m`) and every
// "escapes to heap" / "moved to heap" diagnostic inside them is compared
// against the package's committed allocgate.baseline.json: a diagnostic
// whose (function, message) count exceeds the baseline is a finding.
// Grandfathered allocations live in the baseline (regenerate with
// `symlint -write-alloc-baseline`); new ones must be justified with
// `//lint:allow allocgate` on the allocation line or eliminated. A
// baseline entry that allows more than the build reports (an allocation
// removed, or its function deleted) is a stale allowance and a finding
// too, so a baseline is never looser than the code.
//
// A generic function cannot carry the mark: the compiler reports the
// escapes of a generic body only while compiling the packages that
// instantiate it, filed under the generic's source file, where no
// package's gate looks. Allocgate reports //lint:hotpath on a function
// with type parameters (its own or its receiver's) instead of passing it
// silently.
//
// Escape analysis shifts between compiler releases, so the baseline
// records the go major.minor it was produced with and the check skips
// silently under any other toolchain. The analyzer shells out to the
// go tool.
var Allocgate = &Analyzer{
	Name: "allocgate",
	Doc:  "no new heap allocations in //lint:hotpath functions vs the committed baseline",
	Run:  runAllocgate,
}

// allocBaselineFile is the per-package baseline filename.
const allocBaselineFile = "allocgate.baseline.json"

// allocBaseline is the committed grandfather list for one package.
type allocBaseline struct {
	Go      string               `json:"go"` // toolchain major.minor, e.g. "go1.24"
	Entries []allocBaselineEntry `json:"entries"`
}

type allocBaselineEntry struct {
	Func    string `json:"func"`
	Message string `json:"message"`
	Count   int    `json:"count"`
}

// allocDiag is one escape-analysis diagnostic attributed to a hotpath
// function.
type allocDiag struct {
	fn      string
	message string
	pos     token.Pos
}

// goMinorVersion reports the running toolchain as "goMAJOR.MINOR".
func goMinorVersion() string {
	v := runtime.Version() // e.g. "go1.24.0"
	parts := strings.SplitN(v, ".", 3)
	if len(parts) >= 2 {
		return parts[0] + "." + parts[1]
	}
	return v
}

func runAllocgate(p *Pass) error {
	hot := hotpathFuncs(p)
	for _, h := range hot {
		if h.generic {
			p.Reportf(h.pos,
				"//lint:hotpath on generic %s: escape analysis reports a generic body only where it is instantiated, so the gate cannot check it (drop the type parameters or the mark)",
				h.name)
		}
	}
	diags, dir, ok, err := allocDiagsFor(p, hot)
	if err != nil || !ok {
		return err
	}
	baseline := allocBaseline{}
	raw, err := os.ReadFile(filepath.Join(dir, allocBaselineFile))
	if err == nil {
		if jsonErr := json.Unmarshal(raw, &baseline); jsonErr != nil {
			return fmt.Errorf("allocgate: parse %s: %v", allocBaselineFile, jsonErr)
		}
		if baseline.Go != goMinorVersion() {
			// Escape analysis is compiler-version-specific; a baseline
			// from another toolchain proves nothing either way.
			return nil
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	allowed := map[string]int{}
	for _, e := range baseline.Entries {
		allowed[e.Func+"\x00"+e.Message] += e.Count
	}
	seen := map[string]int{}
	for _, d := range diags {
		key := d.fn + "\x00" + d.message
		seen[key]++
		if seen[key] <= allowed[key] {
			continue
		}
		p.Reportf(d.pos,
			"new heap allocation in //lint:hotpath %s: %s (add to %s via symlint -write-alloc-baseline only with a benchmark justification)",
			d.fn, d.message, allocBaselineFile)
	}
	for _, e := range baseline.Entries {
		key := e.Func + "\x00" + e.Message
		if allowed[key] <= seen[key] {
			continue
		}
		pos := p.Files[0].Package // where a deleted function's entry is reported
		for _, h := range hot {
			if h.name == e.Func {
				pos = h.pos
			}
		}
		p.Reportf(pos,
			"stale allowance in %s for %s: %s (allows %d, the build reports %d); regenerate with `symlint -write-alloc-baseline`",
			allocBaselineFile, e.Func, e.Message, allowed[key], seen[key])
	}
	return nil
}

// allocDiagsFor compiles the pass package with -gcflags=-m and returns
// the escape diagnostics attributed to hotpath functions. ok=false when
// the package has no hotpath annotations (nothing to do, no compile).
func allocDiagsFor(p *Pass, hot []hotpathFunc) (diags []allocDiag, dir string, ok bool, err error) {
	if len(hot) == 0 {
		return nil, "", false, nil
	}
	if len(p.Files) == 0 {
		return nil, "", false, nil
	}
	dir = filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)
	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = dir
	out, runErr := cmd.CombinedOutput()
	if runErr != nil {
		return nil, "", false, fmt.Errorf("allocgate: go build -gcflags=-m in %s: %v\n%s", dir, runErr, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		file, lineNo, col, msg, parsed := parseEscapeDiag(line)
		if !parsed {
			continue
		}
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		for _, h := range hot {
			if filepath.Base(h.file) != filepath.Base(file) || lineNo < h.startLine || lineNo > h.endLine {
				continue
			}
			diags = append(diags, allocDiag{
				fn:      h.name,
				message: msg,
				pos:     h.posAt(lineNo, col),
			})
			break
		}
	}
	return diags, dir, true, nil
}

// hotpathFunc is one //lint:hotpath-annotated function in the pass
// package.
type hotpathFunc struct {
	name               string
	file               string
	startLine, endLine int
	tokFile            *token.File
	pos                token.Pos // the function's name
	generic            bool      // has type parameters, or its receiver does
}

// posAt converts a compiler file:line:col back into a token.Pos inside
// the function's file, so //lint:allow directives on the allocation line
// work.
func (h *hotpathFunc) posAt(line, col int) token.Pos {
	if h.tokFile == nil || line < 1 || line > h.tokFile.LineCount() {
		return token.NoPos
	}
	pos := h.tokFile.LineStart(line)
	if col > 1 {
		pos += token.Pos(col - 1)
	}
	return pos
}

// hotpathFuncs finds the functions annotated //lint:hotpath in the pass
// package.
func hotpathFuncs(p *Pass) []hotpathFunc {
	marked := p.directiveLines("lint:hotpath", "")
	var out []hotpathFunc
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, isFn := d.(*ast.FuncDecl)
			if isFn && fd.Body != nil {
				start := p.Fset.Position(fd.Pos())
				if !marked[lineKey{start.Filename, start.Line}] {
					continue
				}
				out = append(out, hotpathFunc{
					name:      fd.Name.Name,
					file:      start.Filename,
					startLine: start.Line,
					endLine:   p.Fset.Position(fd.End()).Line,
					tokFile:   p.Fset.File(fd.Pos()),
					pos:       fd.Name.Pos(),
					generic:   isGeneric(fd),
				})
			}
		}
	}
	return out
}

// isGeneric reports whether fd declares type parameters or is a method
// of a generic type (receiver T[P] or T[P, Q]).
func isGeneric(fd *ast.FuncDecl) bool {
	if fd.Type.TypeParams != nil && len(fd.Type.TypeParams.List) > 0 {
		return true
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch recv.(type) {
	case *ast.IndexExpr, *ast.IndexListExpr:
		return true
	}
	return false
}

// parseEscapeDiag splits one `-m` output line of the form
// `./file.go:12:7: message`.
func parseEscapeDiag(line string) (file string, lineNo, col int, msg string, ok bool) {
	parts := strings.SplitN(line, ": ", 2)
	if len(parts) != 2 {
		return "", 0, 0, "", false
	}
	loc := strings.Split(parts[0], ":")
	if len(loc) != 3 || !strings.HasSuffix(loc[0], ".go") {
		return "", 0, 0, "", false
	}
	l, err1 := strconv.Atoi(loc[1])
	c, err2 := strconv.Atoi(loc[2])
	if err1 != nil || err2 != nil {
		return "", 0, 0, "", false
	}
	return loc[0], l, c, strings.TrimSpace(parts[1]), true
}

// WriteAllocBaseline recomputes the escape diagnostics for pkg's hotpath
// set and writes allocgate.baseline.json beside the sources, returning
// the number of grandfathered entries (and false when the package has no
// hotpath annotations, in which case nothing is written).
func WriteAllocBaseline(pkg *Package) (int, bool, error) {
	pass := &Pass{
		Analyzer: Allocgate,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	diags, dir, ok, err := allocDiagsFor(pass, hotpathFuncs(pass))
	if err != nil || !ok {
		return 0, false, err
	}
	counts := map[[2]string]int{}
	for _, d := range diags {
		counts[[2]string{d.fn, d.message}]++
	}
	baseline := allocBaseline{Go: goMinorVersion()}
	for k, n := range counts {
		baseline.Entries = append(baseline.Entries, allocBaselineEntry{Func: k[0], Message: k[1], Count: n})
	}
	slices.SortFunc(baseline.Entries, func(a, b allocBaselineEntry) int {
		if c := cmp.Compare(a.Func, b.Func); c != 0 {
			return c
		}
		return cmp.Compare(a.Message, b.Message)
	})
	buf, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		return 0, false, err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(filepath.Join(dir, allocBaselineFile), buf, 0o644); err != nil {
		return 0, false, err
	}
	return len(baseline.Entries), true, nil
}
