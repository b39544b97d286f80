package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detflow is the interprocedural nondeterminism check: a forward taint
// analysis from nondeterminism sources (map-iteration order, the global
// math/rand source, wall-clock time, crypto randomness, goroutine and
// process identity, pointer formatting) to the artifacts the paper's
// reproducibility claims rest on (solution payload fields, solution
// digests, `.scsr` writes). Where detrange and detrand flag the source
// *patterns* inside one function, detflow follows the *values*: a helper
// that returns time.Now().UnixNano() taints every caller that stores the
// result into a solution, across any number of hops and packages.
//
// Escape hatches: `//lint:allow detflow` on the sink line,
// `//lint:commutative` on a map range whose consumption commutes, and
// `//lint:deterministic` on a function declaration to assert its return
// value is deterministic despite what the analysis concludes.
var Detflow = &Analyzer{
	Name: "detflow",
	Doc:  "taint analysis: no nondeterministic value may reach a solution field, digest, or binary graph payload",
	Run:  runDetflow,
}

// detflowFieldSinks are the protected write targets: the fields whose
// bytes end up in solution payloads, digests, and /solve responses.
var detflowFieldSinks = []struct {
	pkgPath, typ, field, desc string
}{
	{"repro/internal/core", "Result", "Matching", "core.Result.Matching (solution payload)"},
	{"repro/internal/core", "Result", "Coloring", "core.Result.Coloring (solution payload)"},
	{"repro/internal/core", "Result", "IndepSet", "core.Result.IndepSet (solution payload)"},
	{"repro/internal/matching", "Matching", "Mate", "matching.Matching.Mate (solution payload)"},
	{"repro/internal/coloring", "Coloring", "Color", "coloring.Coloring.Color (solution payload)"},
	{"repro/internal/mis", "IndepSet", "In", "mis.IndepSet.In (solution payload)"},
	{"repro/internal/serve", "solutionInfo", "Digest", "serve solutionInfo.Digest (/solve response)"},
	{"repro/internal/serve", "solutionInfo", "Assignment", "serve solutionInfo.Assignment (/solve response)"},
}

var detflowConfig = taintConfig{
	name:         "detflow",
	mapRange:     true,
	callSource:   detflowCallSource,
	convSource:   detflowConvSource,
	sinkField:    detflowSinkField,
	sinkLitField: detflowSinkLitField,
	sinkCall:     detflowSinkCall,
}

func runDetflow(p *Pass) error {
	taintEngineFor(p.Prog, detflowConfig).report(p)
	return nil
}

// detflowCallSource classifies intrinsically nondeterministic calls.
// value=true means run-to-run nondeterminism (unsanitizable); value=false
// means ordering nondeterminism (sanitized by sorting).
func detflowCallSource(p *Package, call *ast.CallExpr) (desc string, value, ok bool) {
	pkg, name, isPkgFn := calleePkgFunc(p.Info, call)
	if !isPkgFn {
		return "", false, false
	}
	switch {
	case randPkgs[pkg] && !randConstructors[name]:
		return "global math/rand (" + name + ")", true, true
	case pkg == "time" && (name == "Now" || name == "Since"):
		return "wall-clock time (time." + name + ")", true, true
	case pkg == "crypto/rand":
		return "crypto/rand." + name, true, true
	case pkg == "runtime" && (name == "NumGoroutine" || name == "Stack"):
		return "goroutine state (runtime." + name + ")", true, true
	case pkg == "os" && (name == "Getpid" || name == "Getppid"):
		return "process identity (os." + name + ")", true, true
	case pkg == "maps" && (name == "Keys" || name == "Values"):
		return "map iteration order (maps." + name + ")", false, true
	case pkg == "fmt" && strings.HasPrefix(name, "Sprint") && formatsPointer(call):
		return "pointer formatting (fmt." + name + " %p)", true, true
	}
	return "", false, false
}

// formatsPointer reports whether a fmt call's literal format string
// contains a %p verb (pointer addresses differ run to run).
func formatsPointer(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	return ok && strings.Contains(lit.Value, "%p")
}

// detflowConvSource flags unsafe.Pointer -> uintptr conversions: the
// numeric address of an object is ASLR-randomized between runs.
func detflowConvSource(_ *Package, _ *ast.CallExpr, from, to types.Type) (string, bool) {
	fb, okF := from.Underlying().(*types.Basic)
	tb, okT := to.Underlying().(*types.Basic)
	if okF && okT && fb.Kind() == types.UnsafePointer && tb.Kind() == types.Uintptr {
		return "pointer address (uintptr conversion)", true
	}
	return "", false
}

// detflowSinkField matches writes to the protected solution fields.
func detflowSinkField(p *Package, sel *ast.SelectorExpr) (string, bool) {
	selection, ok := p.Info.Selections[sel]
	if !ok {
		return "", false
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || !field.IsField() {
		return "", false
	}
	return detflowSinkLitField(p, field, selection.Recv())
}

// detflowSinkLitField is the composite-literal form: the same protected
// fields, matched by field object and owner type.
func detflowSinkLitField(_ *Package, field *types.Var, owner types.Type) (string, bool) {
	for _, s := range detflowFieldSinks {
		if field.Name() == s.field && namedFrom(owner, s.pkgPath, s.typ) {
			return s.desc, true
		}
	}
	return "", false
}

// detflowSinkCall marks the binary graph writers as sinks: bytes written
// into a .scsr payload must be deterministic for fingerprints to be
// stable.
func detflowSinkCall(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil || !isInternalPkg(fn.Pkg().Path(), "graph") {
		return "", false
	}
	switch fn.Name() {
	case "WriteBinary", "WriteBinaryFile":
		return "graph." + fn.Name() + " (.scsr payload)", true
	}
	return "", false
}
