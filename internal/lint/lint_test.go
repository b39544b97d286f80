package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// Fixture coverage: one positive+suppressed fixture package per analyzer
// (see testdata/src). Each fixture contains violations annotated with
// `// want` expectations, clean idioms that must not be flagged, and a
// //lint:allow (and, for detrange, //lint:commutative) suppression case.

func TestDetrangeFixture(t *testing.T)    { RunFixture(t, Detrange, "detrange") }
func TestDetrandFixture(t *testing.T)     { RunFixture(t, Detrand, "detrand") }
func TestRawgoFixture(t *testing.T)       { RunFixture(t, Rawgo, "rawgo") }
func TestSpanpairFixture(t *testing.T)    { RunFixture(t, Spanpair, "spanpair") }
func TestNoslicesortFixture(t *testing.T) { RunFixture(t, Noslicesort, "noslicesort") }

func TestDetflowFixture(t *testing.T) {
	RunFixturePkgs(t, Detflow, "detflow", "detflow/helper")
}
func TestMmaplifeFixture(t *testing.T)  { RunFixture(t, Mmaplife, "mmaplife") }
func TestAtomicmixFixture(t *testing.T) { RunFixture(t, Atomicmix, "atomicmix") }
func TestAllocgateFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build; skipped in -short")
	}
	RunFixture(t, Allocgate, "allocgate")
}

// TestAllocgateGenericFixture: a //lint:hotpath mark on a generic
// function or a method of a generic type is a finding, since no package's
// escape output attributes the generic body's allocations to it.
func TestAllocgateGenericFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build; skipped in -short")
	}
	RunFixture(t, Allocgate, "allocgategeneric")
}

// TestAllocgateBaselineFixture: the allocgatebase fixture's only hotpath
// allocation is grandfathered in its committed allocgate.baseline.json,
// so the analyzer must stay silent (the fixture has no want comments).
func TestAllocgateBaselineFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build; skipped in -short")
	}
	RunFixture(t, Allocgate, "allocgatebase")
}

// TestAllocgateStaleFixture: the allocgatestale fixture's baseline allows
// more than its build reports, for a live function and for a deleted one;
// both entries are stale allowances.
func TestAllocgateStaleFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build; skipped in -short")
	}
	if v := goMinorVersion(); v != "go1.24" {
		t.Skipf("the fixture's baseline is for go1.24; allocgate skips it under %s", v)
	}
	RunFixture(t, Allocgate, "allocgatestale")
}

// TestDetflowCatchesWhatDetrandMisses pins the reason detflow exists: the
// detflowgap fixture stores a laundered rand draw into a solution field.
// Its only nondeterminism lives in another package, so the one-level
// detrand and detrange checks report nothing — while detflow's function
// summaries carry the taint across the package boundary to the sink.
func TestDetflowCatchesWhatDetrandMisses(t *testing.T) {
	pkgs, err := LoadPackages(".", "./testdata/src/detflowgap", "./testdata/src/detflow/helper")
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	prog := NewProgram(pkgs)
	var gap *Package
	for _, pkg := range pkgs {
		if filepath.Base(pkg.Path) == "detflowgap" {
			gap = pkg
		}
	}
	if gap == nil {
		t.Fatal("detflowgap package not loaded")
	}
	for _, a := range []*Analyzer{Detrange, Detrand} {
		diags, err := RunAnalyzerProg(a, gap, prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Errorf("%s unexpectedly fires on detflowgap: %v (the gap fixture no longer demonstrates the blind spot)", a.Name, diags)
		}
	}
	diags, err := RunAnalyzerProg(Detflow, gap, prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("detflow on detflowgap: got %d findings, want exactly 1: %v", len(diags), diags)
	}

	// Full coverage of the fixture's want comments.
	RunFixturePkgs(t, Detflow, "detflowgap", "detflow/helper")
}

// TestDetrangeDetrandCatchWhatDetflowMisses pins the converse, and the
// reason detrange and detrand are not subsumed by detflow: in the detctrl
// fixture a map range and a rand draw steer which constant lands in a
// solution field. No nondeterministic value reaches the sink, so
// detflow reports nothing, while the one-level checks flag the map range
// and the global draw.
func TestDetrangeDetrandCatchWhatDetflowMisses(t *testing.T) {
	pkgs, err := LoadPackages(".", "./testdata/src/detctrl")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	prog := NewProgram(pkgs)
	for _, c := range []struct {
		a    *Analyzer
		want int
	}{{Detflow, 0}, {Detrange, 1}, {Detrand, 1}} {
		diags, err := RunAnalyzerProg(c.a, pkgs[0], prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != c.want {
			t.Errorf("%s on detctrl: got %d findings, want %d: %v", c.a.Name, len(diags), c.want, diags)
		}
	}
}

// TestRepoIsLintClean runs the full suite, with scopes, over the whole
// module — the same invocation as `make lint` — and requires zero
// findings. This is the machine-enforced version of the determinism and
// observability invariants: a PR that introduces a map range on a solver
// path, an unseeded rand draw, a bare goroutine or an unclosed span fails
// `go test ./...` here.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module; skipped in -short")
	}
	pkgs, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	// The gate is whole-module: commands and examples must be in the set,
	// not just internal/ — laundering through a cmd/ helper is exactly
	// what the interprocedural analyzers exist to catch.
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	for _, path := range []string{"repro/cmd/symbreak", "repro/cmd/symlint", "repro/examples/quickstart"} {
		if !loaded[path] {
			t.Errorf("whole-module lint gate does not cover %s", path)
		}
	}
	diags, err := Run(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestAppliesTo(t *testing.T) {
	a := &Analyzer{
		Scope:   []string{"repro/internal/mis", "repro/internal/graph"},
		Exclude: []string{"repro/internal/graph/testutil"},
	}
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/mis", true},
		{"repro/internal/graph", true},
		{"repro/internal/graph/testutil", false},
		{"repro/internal/graph/testutil/sub", false},
		{"repro/internal/misfit", false}, // prefix must respect path boundaries
		{"repro/internal/harness", false},
	}
	for _, c := range cases {
		if got := a.AppliesTo(c.path); got != c.want {
			t.Errorf("AppliesTo(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	unscoped := &Analyzer{Exclude: []string{"repro/internal/telemetry"}}
	if !unscoped.AppliesTo("repro/internal/harness") {
		t.Error("empty scope should apply everywhere")
	}
	if unscoped.AppliesTo("repro/internal/telemetry") {
		t.Error("exclude should win over empty scope")
	}
}

func TestAllowDirectiveParsing(t *testing.T) {
	src := `package p

func f() int {
	x := 1 //lint:allow rawgo, detrange
	//lint:allow spanpair
	y := 2
	return x + y
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Analyzer: Detrange, Fset: fset, Files: []*ast.File{f}}

	lines := pass.directiveLines("lint:allow", "detrange")
	if !lines[lineKey{"p.go", 4}] || !lines[lineKey{"p.go", 5}] {
		t.Errorf("comma-separated allow list should cover lines 4-5: %v", lines)
	}
	if lines[lineKey{"p.go", 6}] {
		t.Errorf("allow for a different analyzer must not leak to line 6")
	}
	spanLines := pass.directiveLines("lint:allow", "spanpair")
	if !spanLines[lineKey{"p.go", 6}] {
		t.Errorf("preceding-line allow should cover line 6: %v", spanLines)
	}
	if none := pass.directiveLines("lint:allow", "noslicesort"); len(none) != 0 {
		t.Errorf("unrelated analyzer should see no allow lines, got %v", none)
	}
}

func TestAnalyzersSuiteShape(t *testing.T) {
	as := Analyzers()
	if len(as) != 9 {
		t.Fatalf("suite has %d analyzers, want 9", len(as))
	}
	seen := map[string]bool{}
	for i, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if i > 0 && as[i-1].Name >= a.Name {
			t.Errorf("suite not sorted by name: %q before %q", as[i-1].Name, a.Name)
		}
	}
	for _, name := range []string{
		"detrange", "detrand", "rawgo", "spanpair", "noslicesort",
		"detflow", "mmaplife", "atomicmix", "allocgate",
	} {
		if !seen[name] {
			t.Errorf("suite is missing analyzer %q", name)
		}
	}
}

// TestSortDiagnostics pins the stable output order `-json` promises:
// findings sort by (file, line, analyzer, column).
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, analyzer string) Diagnostic {
		return Diagnostic{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
		}
	}
	diags := []Diagnostic{
		mk("b.go", 1, 1, "detrand"),
		mk("a.go", 9, 2, "rawgo"),
		mk("a.go", 9, 8, "detflow"),
		mk("a.go", 9, 1, "detflow"),
		mk("a.go", 2, 1, "spanpair"),
	}
	SortDiagnostics(diags)
	want := []Diagnostic{
		mk("a.go", 2, 1, "spanpair"),
		mk("a.go", 9, 1, "detflow"),
		mk("a.go", 9, 8, "detflow"),
		mk("a.go", 9, 2, "rawgo"),
		mk("b.go", 1, 1, "detrand"),
	}
	for i := range want {
		if diags[i].Analyzer != want[i].Analyzer || diags[i].Pos != want[i].Pos {
			t.Fatalf("position %d: got %s:%d:%d [%s], want %s:%d:%d [%s]",
				i, diags[i].Pos.Filename, diags[i].Pos.Line, diags[i].Pos.Column, diags[i].Analyzer,
				want[i].Pos.Filename, want[i].Pos.Line, want[i].Pos.Column, want[i].Analyzer)
		}
	}
}

// TestFrontierEngineInScope pins the frontier engine into the determinism
// scopes: its fan-out paths (EdgeMap push/pull, Subset conversions) must be
// rawgo- and detrange-checked like every other solver package, and must not
// ride on the par exclusion.
func TestFrontierEngineInScope(t *testing.T) {
	Analyzers() // assigns the scopes
	const path = "repro/internal/frontier"
	for _, a := range []*Analyzer{Detrange, Detrand, Rawgo} {
		if !a.AppliesTo(path) {
			t.Errorf("%s does not cover %s", a.Name, path)
		}
	}
	for _, excl := range Rawgo.Exclude {
		if excl == path {
			t.Errorf("rawgo excludes %s", path)
		}
	}
}

// TestServeLayerCovered pins the serving layer into the unscoped
// invariants: spans must pair and sorts must go through par in
// internal/serve and the command wiring — none of these packages may ride
// on an exclusion.
func TestServeLayerCovered(t *testing.T) {
	Analyzers() // assigns the scopes
	for _, path := range []string{"repro/internal/serve", "repro/cmd/symbreak", "repro/cmd/symload"} {
		for _, a := range []*Analyzer{Spanpair, Noslicesort} {
			if !a.AppliesTo(path) {
				t.Errorf("%s does not cover %s", a.Name, path)
			}
		}
	}
}
