package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Atomicmix enforces all-or-nothing atomicity: a struct field or package
// variable that is accessed through sync/atomic anywhere in the program
// must be accessed atomically everywhere. A single plain load racing a
// CAS loop is a data race the race detector only catches when the
// schedule cooperates; this check catches it statically, across
// packages, and through helpers — passing &x.f to a function that
// atomically updates its pointee counts as an atomic access of x.f at
// the call site (and symmetrically for helpers that deref plainly).
//
// Fields of the method-based sync/atomic types (atomic.Int64 & co) are
// exempt: their API makes mixed access impossible. Composite-literal
// initialization is exempt too — zeroing a counter before the value is
// shared is the universal constructor idiom, not a race.
var Atomicmix = &Analyzer{
	Name: "atomicmix",
	Doc:  "a field or variable accessed via sync/atomic must be accessed atomically everywhere",
	Run:  runAtomicmix,
}

// atomicAccess is one classified access to a tracked field or variable.
type atomicAccess struct {
	key     string // pkgPath.Type.field or pkgPath.var
	pkgPath string // package the access appears in
	pos     token.Pos
	site    string // "file:line" for cross-references
	atomic  bool
	via     string // helper name when classified through a call, else ""
}

// atomicPtrSummary records, per function, which pointer parameters the
// body accesses atomically and which it derefs plainly (bit i = summary
// param i).
type atomicPtrSummary struct {
	atomic, plain uint64
}

// atomicFacts is the program-wide result of the collection phase.
type atomicFacts struct {
	accesses []atomicAccess               // in deterministic program order
	atomicAt map[string]string            // key -> first atomic site
	sums     map[string]*atomicPtrSummary // by funcKey
}

func runAtomicmix(p *Pass) error {
	prog := p.Prog
	if prog == nil {
		prog = NewProgram([]*Package{{
			Path:  p.Pkg.Path(),
			Fset:  p.Fset,
			Files: p.Files,
			Types: p.Pkg,
			Info:  p.Info,
		}})
	}
	facts := atomicFactsFor(prog)
	for _, acc := range facts.accesses {
		if acc.atomic || acc.pkgPath != p.Pkg.Path() {
			continue
		}
		site, mixed := facts.atomicAt[acc.key]
		if !mixed {
			continue
		}
		how := "plain access"
		if acc.via != "" {
			how = "non-atomic access via " + acc.via
		}
		p.Reportf(acc.pos,
			"%s of %s, which is accessed atomically at %s: use sync/atomic on every access", how, acc.key, site)
	}
	return nil
}

// atomicFactsFor collects every classified access in the program,
// memoized on the Program.
func atomicFactsFor(prog *Program) *atomicFacts {
	if f, ok := prog.cache["atomicmix"].(*atomicFacts); ok {
		return f
	}
	facts := &atomicFacts{
		atomicAt: map[string]string{},
		sums:     map[string]*atomicPtrSummary{},
	}
	// Fixpoint over pointer-parameter summaries: a helper wrapping
	// another helper needs its callee's bits before its own settle.
	for iter := 0; iter < 64; iter++ {
		changed := false
		for _, fi := range prog.decls {
			next := collectPtrSummary(facts, fi)
			prev := facts.sums[funcKey(fi.Fn)]
			if prev == nil || *prev != *next {
				facts.sums[funcKey(fi.Fn)] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Access collection, in deterministic declaration order.
	for _, fi := range prog.decls {
		collectAccesses(facts, fi)
	}
	for _, acc := range facts.accesses {
		if acc.atomic {
			if _, seen := facts.atomicAt[acc.key]; !seen {
				facts.atomicAt[acc.key] = acc.site
			}
		}
	}
	prog.cache["atomicmix"] = facts
	return facts
}

// isAtomicOp reports whether fn is one of the address-based sync/atomic
// operations (AddT, LoadT, StoreT, SwapT, CompareAndSwapT).
func isAtomicOp(pkg, name string) bool {
	if pkg != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// trackedTarget resolves the operand of a unary & (or a bare identifier)
// to a tracked field or package-variable key. Fields of sync/atomic
// named types and non-integer fields are not tracked.
func trackedTarget(pkg *Package, e ast.Expr) (key string, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		selection, isSel := pkg.Info.Selections[e]
		if !isSel {
			return "", false
		}
		field, isVar := selection.Obj().(*types.Var)
		if !isVar || !field.IsField() || !trackableType(field.Type()) {
			return "", false
		}
		owner := ownerName(selection.Recv())
		if owner == "" || field.Pkg() == nil {
			return "", false
		}
		return field.Pkg().Path() + "." + owner + "." + field.Name(), true
	case *ast.Ident:
		obj, isVar := pkg.Info.Uses[e].(*types.Var)
		if !isVar || obj.Pkg() == nil || !trackableType(obj.Type()) {
			return "", false
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return "", false // only package-level variables
		}
		return obj.Pkg().Path() + "." + obj.Name(), true
	}
	return "", false
}

// trackableType reports whether t is a plain integer type — the only
// shape the address-based sync/atomic API operates on. Named sync/atomic
// types are excluded (their methods can't race with plain access).
func trackableType(t types.Type) bool {
	if named, isNamed := types.Unalias(t).(*types.Named); isNamed {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			return false
		}
	}
	b, isBasic := t.Underlying().(*types.Basic)
	return isBasic && b.Info()&types.IsInteger != 0
}

// ownerName returns the named type a field selection's receiver resolves
// to.
func ownerName(recv types.Type) string {
	t := types.Unalias(recv)
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = types.Unalias(ptr.Elem())
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return named.Obj().Name()
	}
	return ""
}

// collectPtrSummary computes which pointer parameters fi's body accesses
// atomically vs. plainly, using the summaries gathered so far.
func collectPtrSummary(facts *atomicFacts, fi *FuncInfo) *atomicPtrSummary {
	info := fi.Pkg.Info
	sum := &atomicPtrSummary{}
	paramBit := map[types.Object]uint64{}
	for i, obj := range paramObjects(info, fi.Decl) {
		if i < 64 {
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); isPtr {
				paramBit[obj] = uint64(1) << i
			}
		}
	}
	if len(paramBit) == 0 {
		return sum
	}
	bitOf := func(e ast.Expr) uint64 {
		id, isIdent := ast.Unparen(e).(*ast.Ident)
		if !isIdent {
			return 0
		}
		return paramBit[info.Uses[id]]
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StarExpr:
			sum.plain |= bitOf(n.X)
		case *ast.CallExpr:
			if pkg, name, ok := calleePkgFunc(info, n); ok && isAtomicOp(pkg, name) {
				if len(n.Args) > 0 {
					sum.atomic |= bitOf(n.Args[0])
				}
				return true
			}
			callee := staticCallee(info, n)
			if callee == nil {
				return true
			}
			csum := facts.sums[funcKey(callee)]
			if csum == nil {
				return true
			}
			isMethod := callIsMethod(info, n)
			for i := 0; i < 64; i++ {
				bit := uint64(1) << i
				if csum.atomic&bit == 0 && csum.plain&bit == 0 {
					continue
				}
				arg := argForParam(n, isMethod, i)
				if arg == nil {
					continue
				}
				if b := bitOf(arg); b != 0 {
					if csum.atomic&bit != 0 {
						sum.atomic |= b
					}
					if csum.plain&bit != 0 {
						sum.plain |= b
					}
				}
			}
		}
		return true
	})
	return sum
}

// collectAccesses walks one function and classifies every access to a
// tracked field or package variable.
func collectAccesses(facts *atomicFacts, fi *FuncInfo) {
	info := fi.Pkg.Info
	record := func(e ast.Expr, pos token.Pos, atomic bool, via string) {
		key, ok := trackedTarget(fi.Pkg, e)
		if !ok {
			return
		}
		facts.accesses = append(facts.accesses, atomicAccess{
			key:     key,
			pkgPath: fi.Pkg.Path,
			pos:     pos,
			site:    shortPos(fi.Pkg, pos),
			atomic:  atomic,
			via:     via,
		})
	}
	// classifiedAddr marks &target operands consumed by a recognized
	// call so the generic pass below doesn't double-count them, and
	// addresses passed to unclassifiable places (which we skip rather
	// than guess).
	classifiedAddr := map[ast.Expr]bool{}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if pkg, name, ok := calleePkgFunc(info, call); ok && isAtomicOp(pkg, name) {
			if len(call.Args) > 0 {
				if un, isUn := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); isUn && un.Op == token.AND {
					classifiedAddr[un] = true
					record(un.X, un.Pos(), true, "")
				}
			}
			return true
		}
		callee := staticCallee(info, call)
		var csum *atomicPtrSummary
		if callee != nil {
			csum = facts.sums[funcKey(callee)]
		}
		isMethod := callIsMethod(info, call)
		for ai, arg := range call.Args {
			un, isUn := ast.Unparen(arg).(*ast.UnaryExpr)
			if !isUn || un.Op != token.AND {
				continue
			}
			if _, tracked := trackedTarget(fi.Pkg, un.X); !tracked {
				continue
			}
			// An address escaping into a call is classified by the
			// callee's pointer summary; without one, skip it rather
			// than guess.
			classifiedAddr[un] = true
			if csum == nil || callee == nil {
				continue
			}
			pi := ai
			if isMethod {
				pi++
			}
			if pi >= 64 {
				continue
			}
			bit := uint64(1) << pi
			if csum.atomic&bit != 0 {
				record(un.X, un.Pos(), true, "")
			}
			if csum.plain&bit != 0 {
				record(un.X, un.Pos(), false, callee.Name())
			}
		}
		return true
	})

	// Generic pass: every remaining direct read/write is a plain access.
	// Composite-literal keys never parse as selectors or package-scope
	// uses here, so constructor initialization stays exempt.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND && classifiedAddr[n] {
				return false // already classified via a call
			}
			if n.Op == token.AND {
				if _, tracked := trackedTarget(fi.Pkg, n.X); tracked {
					return false // address taken to an unknown place: skip
				}
			}
		case *ast.SelectorExpr:
			record(n, n.Pos(), false, "")
			return true
		case *ast.Ident:
			record(n, n.Pos(), false, "")
		}
		return true
	})
}
