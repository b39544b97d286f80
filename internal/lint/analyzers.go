package lint

import (
	"cmp"
	"slices"
)

// Import-path scopes. The solver scope is the result-producing core the
// determinism sweep exercises; the kernel scope adds the remaining
// algorithmic packages (sequential baselines, generators, the
// biconnectivity/bipartite kernels and the multilevel scheme) that must
// be equally schedule-independent.
var (
	solverScope = prefixed(
		"decomp", "matching", "coloring", "mis", "bsp", "graph", "core",
		"frontier",
	)
	kernelScope = prefixed(
		"decomp", "matching", "coloring", "mis", "bsp", "graph", "core",
		"multilevel", "seq", "gen", "biconn", "bipartite",
		"frontier",
	)
)

func prefixed(pkgs ...string) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = "repro/internal/" + p
	}
	return out
}

// Analyzers returns the full suite sorted by analyzer name. Scopes are
// set here, in one place, rather than on each analyzer's definition: the
// invariant is a property of the repository layout, not of the check.
//
// The v2 interprocedural analyzers (detflow, mmaplife, atomicmix) are
// unscoped: their sinks and facts are specific enough that scope would
// only hide laundering paths through cmd/ and examples/ packages.
// mmaplife excludes the graph package itself (the mapping's
// implementation must touch it) and allocgate excludes nothing — it
// self-gates on //lint:hotpath annotations.
func Analyzers() []*Analyzer {
	Detrange.Scope = solverScope
	Detrand.Scope = kernelScope
	Rawgo.Scope = kernelScope
	Rawgo.Exclude = []string{"repro/internal/par"}
	Spanpair.Exclude = []string{"repro/internal/trace"}
	Mmaplife.Exclude = []string{"repro/internal/graph"}
	all := []*Analyzer{
		Detrange, Detrand, Rawgo, Spanpair, Noslicesort,
		Detflow, Mmaplife, Atomicmix, Allocgate,
	}
	slices.SortFunc(all, func(a, b *Analyzer) int {
		return cmp.Compare(a.Name, b.Name)
	})
	return all
}

// Run applies every in-scope analyzer to every package, sharing one
// whole-program view across passes, and returns the findings sorted by
// (file, line, analyzer, column) — the stable order `-json` pins.
func Run(pkgs []*Package) ([]Diagnostic, error) {
	prog := NewProgram(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			ds, err := RunAnalyzerProg(a, pkg, prog)
			if err != nil {
				return nil, err
			}
			diags = append(diags, ds...)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders findings by (file, line, analyzer, column):
// position first so findings read in source order, analyzer before
// column so the order is reproducible even when two analyzers anchor
// differently on the same construct.
func SortDiagnostics(diags []Diagnostic) {
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if c := cmp.Compare(a.Pos.Filename, b.Pos.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Analyzer, b.Analyzer); c != 0 {
			return c
		}
		return cmp.Compare(a.Pos.Column, b.Pos.Column)
	})
}
