package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Mmaplife is a static use-after-unmap check for the mmap-backed binary
// graph surface. graph.OpenBinary returns a *BinaryGraph whose embedded
// Graph holds unsafe.Slice views directly into the file mapping; Close
// munmaps, after which any surviving view is a fault (or worse, silently
// remapped memory). The analyzer tracks aliases of the mapping — the
// handle's embedded Graph, Neighbors results, anything a helper derives
// from them (via the shared taint summaries, so aliases survive
// laundering through functions) — and reports, in functions that Close
// the handle:
//
//   - uses of an alias positioned after a non-deferred Close;
//   - aliases escaping the function (returned, stored through a
//     parameter or package variable, or captured by a returned closure)
//     while any Close — including a deferred one — is pending.
//
// Functions that never Close are clean by design: LoadFile-style callers
// intentionally keep the mapping alive for the process lifetime.
var Mmaplife = &Analyzer{
	Name: "mmaplife",
	Doc:  "no alias of a mapped BinaryGraph may be used or escape past Close",
	Run:  runMmaplife,
}

var mmaplifeAliasConfig = taintConfig{
	name:             "mmaplife-alias",
	fieldWriteTaints: true,
	callSource:       mmapAliasSource,
}

// mmapAliasSource marks the mapping root: OpenBinary results. Every
// other alias derives from the handle by selection or method call, which
// ordinary taint flow covers.
func mmapAliasSource(p *Package, call *ast.CallExpr) (string, bool, bool) {
	if pkg, name, ok := calleePkgFunc(p.Info, call); ok {
		if name == "OpenBinary" && isInternalPkg(pkg, "graph") {
			return "graph.OpenBinary mapping", true, true
		}
	}
	return "", false, false
}

func runMmaplife(p *Pass) error {
	eng := taintEngineFor(p.Prog, mmaplifeAliasConfig)
	for _, fi := range p.Prog.decls {
		if fi.Pkg.Path == p.Pkg.Path() {
			checkMmapLifetimes(p, eng, fi)
		}
	}
	return nil
}

// isBinaryGraph reports whether t is (a pointer to) graph.BinaryGraph.
func isBinaryGraph(t types.Type) bool {
	return t != nil && namedFrom(t, "repro/internal/graph", "BinaryGraph")
}

// canHoldAlias reports whether a value of type t can reference mapped
// memory. Scalars computed *from* the mapping — vertex counts, degrees,
// ids — are copies, safe to keep past Close; only reference-shaped types
// (and structs or arrays that may embed them) carry the mapping itself.
func canHoldAlias(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.Uintptr
	default:
		return true
	}
}

// checkMmapLifetimes analyzes one function: find the Close calls, then
// flag alias uses after a plain Close and alias escapes under any Close.
func checkMmapLifetimes(p *Pass, eng *taintEngine, fi *FuncInfo) {
	info := fi.Pkg.Info
	sc := eng.scan(fi, nil)

	// Handle-typed parameters count as mapping roots too: a function
	// handed a *BinaryGraph that Closes it has the same obligations as
	// one that opened it.
	var handleParams uint64
	for obj, i := range sc.params {
		if isBinaryGraph(obj.Type()) {
			handleParams |= uint64(1) << i
		}
	}
	isAlias := func(t taint) bool {
		return t.value || t.params&handleParams != 0
	}

	// Locate Close calls on BinaryGraph receivers. Each non-deferred
	// Close "gates" the source region that executes after it: up to the
	// end of its enclosing block when that block exits with a return
	// (the error-path `if hdrOnly { bg.Close(); return }` idiom must
	// not condemn the happy path below it), otherwise to the end of the
	// function.
	type closeGate struct{ pos, end token.Pos }
	var gates []closeGate
	anyClose := false
	anyDeferred := false
	walkStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		_, name, ok := calleeMethod(info, call)
		if !ok || name != "Close" {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		tv, ok := info.Types[sel.X]
		if !ok || !isBinaryGraph(tv.Type) {
			return
		}
		anyClose = true
		end := fi.Decl.Body.End()
		for _, anc := range stack {
			if _, isDefer := anc.(*ast.DeferStmt); isDefer {
				anyDeferred = true
				return // deferred Close never gates in-function uses
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			blk, isBlk := stack[i].(*ast.BlockStmt)
			if !isBlk || blk == fi.Decl.Body {
				continue
			}
			if n := len(blk.List); n > 0 {
				if _, isRet := blk.List[n-1].(*ast.ReturnStmt); isRet {
					end = blk.End()
				}
			}
			break // only the innermost block decides
		}
		gates = append(gates, closeGate{call.Pos(), end})
	})
	if !anyClose {
		return // mapping intentionally outlives the function (LoadFile pattern)
	}
	gatedBy := func(pos token.Pos) token.Pos {
		for _, g := range gates {
			if g.pos < pos && pos <= g.end {
				return g.pos
			}
		}
		return token.NoPos
	}

	objOf := func(id *ast.Ident) types.Object {
		if obj := info.Uses[id]; obj != nil {
			return obj
		}
		return info.Defs[id]
	}
	typeOf := func(info *types.Info, e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		return nil
	}

	walkStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			// Use of a mapped view after a non-deferred Close. The
			// handle itself is exempt here (double-Close and header
			// reads are lifecycle questions, not mapping aliases) and
			// covered by the selector rule below.
			gate := gatedBy(n.Pos())
			if gate == token.NoPos {
				return
			}
			obj := objOf(n)
			if obj == nil || isBinaryGraph(obj.Type()) || !canHoldAlias(obj.Type()) {
				return
			}
			if isAlias(sc.st[obj]) {
				p.Reportf(n.Pos(),
					"use of mapped graph view %q after Close at %s: the mapping is unmapped", n.Name, shortPos(fi.Pkg, gate))
			}
		case *ast.SelectorExpr:
			// Selecting into the handle after a plain Close: bg.Graph,
			// bg.Mapped(), any field but the value-copied Hdr.
			gate := gatedBy(n.Pos())
			if gate == token.NoPos {
				return
			}
			tv, ok := info.Types[n.X]
			if !ok || !isBinaryGraph(tv.Type) {
				return
			}
			switch n.Sel.Name {
			case "Close", "Hdr", "Mapped":
				// Close is idempotent, Hdr is a value copy, and Mapped
				// is a nil-check predicate — all safe after unmap.
				return
			}
			p.Reportf(n.Pos(),
				"access to BinaryGraph.%s after Close at %s: the mapping is unmapped", n.Sel.Name, shortPos(fi.Pkg, gate))
		case *ast.ReturnStmt:
			// A return escapes the mapping only when a deferred Close
			// is pending (it runs after the return value is computed).
			// Returning an alias after a plain Close is use-after-unmap
			// and already reported by the ident/selector rules above;
			// happy-path returns in functions that Close only on error
			// paths are the intentional keep-alive pattern.
			if hasFuncLit(stack) || !anyDeferred {
				return
			}
			for _, res := range n.Results {
				if lit, ok := ast.Unparen(res).(*ast.FuncLit); ok {
					if capturesAlias(info, lit, sc, isAlias) {
						p.Reportf(res.Pos(),
							"returned closure captures a mapped graph view past Close: the mapping is unmapped when the closure runs")
					}
					continue
				}
				if isAlias(sc.exprTaint(res)) && canHoldAlias(typeOf(info, res)) {
					p.Reportf(res.Pos(),
						"mapped graph view escapes: returned from a function that Closes the mapping")
				}
			}
		case *ast.AssignStmt:
			// A store escapes when a Close can still run after it: a
			// deferred Close always pends; a plain Close later in the
			// source invalidates what was just stored. (Storing after a
			// plain Close is use-after-unmap — the RHS alias read is
			// already reported by the ident/selector rules above.) Only
			// a store in a region no Close reaches, the happy path of a
			// close-on-error function, keeps the mapping alive
			// legitimately.
			laterPlainClose := false
			for _, g := range gates {
				if g.pos > n.Pos() {
					laterPlainClose = true
					break
				}
			}
			if !anyDeferred && !laterPlainClose {
				return
			}
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				case i < len(n.Rhs):
					rhs = n.Rhs[i]
				default:
					continue
				}
				if !isAlias(sc.exprTaint(rhs)) || !canHoldAlias(typeOf(info, rhs)) {
					continue
				}
				if escapingStore(p, info, sc, lhs) {
					p.Reportf(lhs.Pos(),
						"mapped graph view stored outside the function that Closes the mapping")
				}
			}
		}
	})
}

// escapingStore reports whether assigning to lhs moves a value beyond
// the current function: a package-level variable, or a field/element
// reachable through a parameter.
func escapingStore(p *Pass, info *types.Info, sc *funcScan, lhs ast.Expr) bool {
	id := rootIdent(lhs)
	if id == nil {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	if obj.Parent() == p.Pkg.Scope() {
		return true // package-level variable
	}
	if _, isParam := sc.params[obj]; isParam {
		if _, direct := ast.Unparen(lhs).(*ast.Ident); !direct {
			return true // store through a parameter's field or element
		}
	}
	return false
}

// capturesAlias reports whether a function literal's body references any
// alias of the mapping.
func capturesAlias(info *types.Info, lit *ast.FuncLit, sc *funcScan, isAlias func(taint) bool) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && isAlias(sc.st[obj]) && canHoldAlias(obj.Type()) {
			found = true
		}
		return true
	})
	return found
}
