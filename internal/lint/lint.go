// Package lint is symlint: a suite of static analyzers enforcing the
// invariants the reproduction's determinism and observability claims rest
// on. The DESIGN.md determinism sweep shows MM/COLOR/MIS solvers produce
// identical results across worker counts; that only holds because solver
// code never iterates maps on result-producing paths, never draws from the
// shared math/rand source, and fans out exclusively through internal/par's
// pool. Likewise the trace/telemetry layers are only truthful if every
// span is closed and every metric publication is gated. Those rules were
// previously enforced by review; this package enforces them by machine.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf) but is built on the standard library alone — go/parser for
// syntax, go/types for semantics, and compiled export data from
// `go list -export -deps` for imports — so the module keeps zero external
// dependencies. cmd/symlint is the driver: it loads the named packages
// into one whole-program view and runs every in-scope analyzer over them.
//
// Suppression: any finding is silenced by a `//lint:allow <name>` comment
// on the offending line or the line above (name is the analyzer name;
// several names may be comma-separated). detrange additionally honors the
// semantic annotation `//lint:commutative`, which asserts that the loop
// body commutes — iteration order cannot affect the result — and is the
// preferred way to bless a map range.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check. Scope and Exclude are
// import-path prefixes the driver uses to decide which packages the
// analyzer applies to; the fixture tests bypass them and run analyzers
// directly.
type Analyzer struct {
	Name    string
	Doc     string
	Scope   []string // import-path prefixes to analyze; empty = all packages
	Exclude []string // import-path prefixes exempted even when in scope
	Run     func(*Pass) error
}

// AppliesTo reports whether the analyzer should run on the package with
// the given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	for _, p := range a.Exclude {
		if path == p || strings.HasPrefix(path, p+"/") {
			return false
		}
	}
	if len(a.Scope) == 0 {
		return true
	}
	for _, p := range a.Scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer applied to one package. Prog is the whole-program
// view shared by every pass of a Run; the interprocedural analyzers
// (detflow, mmaplife, atomicmix) read cross-package summaries from it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Prog     *Program

	diags      *[]Diagnostic
	allow      map[lineKey]bool
	allowBuilt bool
}

type lineKey struct {
	file string
	line int
}

// Reportf records a finding at pos unless a `//lint:allow <name>`
// directive covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if !p.allowBuilt {
		p.allow = p.directiveLines("lint:allow", p.Analyzer.Name)
		p.allowBuilt = true
	}
	position := p.Fset.Position(pos)
	if p.allow[lineKey{position.Filename, position.Line}] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directiveLines collects the lines covered by a //lint:<directive>
// comment: the comment's own line (trailing form) and the line below it
// (preceding form). For "lint:allow", only directives naming `name` count;
// for marker directives such as "lint:commutative", pass name == "".
func (p *Pass) directiveLines(directive, name string) map[lineKey]bool {
	lines := map[lineKey]bool{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, directive) {
					continue
				}
				if name != "" {
					rest := strings.TrimPrefix(text, directive)
					found := false
					for _, n := range strings.FieldsFunc(rest, func(r rune) bool {
						return r == ',' || r == ' ' || r == '\t'
					}) {
						if n == name {
							found = true
							break
						}
					}
					if !found {
						continue
					}
				}
				pos := p.Fset.Position(c.Pos())
				lines[lineKey{pos.Filename, pos.Line}] = true
				lines[lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return lines
}

// RunAnalyzerProg applies one analyzer to one package with an explicit
// whole-program view. The driver and the fixture tests share this entry
// point; prog may span many packages so interprocedural analyzers see
// across them.
func RunAnalyzerProg(a *Analyzer, pkg *Package, prog *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Prog:     prog,
		diags:    &diags,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
	}
	return diags, nil
}

// walkStack traverses root calling fn with each node and the stack of its
// ancestors (outermost first, excluding the node itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// calleePkgFunc resolves call's callee to a package-level function,
// returning its package path and name. Method calls and local closures
// return ok == false.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// calleeMethod resolves call's callee to a method, returning the package
// path that declares the method and the method name.
func calleeMethod(info *types.Info, call *ast.CallExpr) (pkgPath, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// namedFrom reports whether t (possibly behind a pointer or alias) is the
// named type pkgPath.name.
func namedFrom(t types.Type, pkgPath, name string) bool {
	t = types.Unalias(t)
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = types.Unalias(ptr.Elem())
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// intrapkg reports whether path is this repository's pkg (exact module
// path, or any module's copy when running over fixtures — matched by the
// /internal/<pkg> suffix).
func isInternalPkg(path, pkg string) bool {
	return path == "repro/internal/"+pkg || strings.HasSuffix(path, "/internal/"+pkg)
}
