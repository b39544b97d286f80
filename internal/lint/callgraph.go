package lint

// The whole-program view behind symlint v2's interprocedural analyzers.
// The v1 framework handed each analyzer one package at a time; detflow,
// mmaplife and atomicmix need to see across function and package
// boundaries — a nondeterministic value laundered through a helper, a
// mapped slice returned by a wrapper, a field CAS'd in one package and
// read plainly in another. Program indexes every function declaration in
// the load and resolves static call edges over go/types, so those
// analyzers can look up the callee's declaration (and its cached
// dataflow summary, see taint.go) from any call site.

import (
	"go/ast"
	"go/types"
)

// FuncInfo ties one declared function to its AST body and the package it
// was type-checked in.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Program is the full set of packages under analysis plus the
// cross-package function index the interprocedural analyzers share.
// Analyzer results derived from the whole program (taint summaries,
// atomic-access facts) are memoized in cache under an analyzer-chosen
// key; Run is single-goroutine, so no locking is needed.
type Program struct {
	Pkgs []*Package

	decls []*FuncInfo // every function declaration, in load order
	cache map[string]any
}

// NewProgram indexes the packages into a Program. The declaration order
// is deterministic: packages in load order, files in parse order,
// declarations in source order — every fixpoint below iterates in this
// order so findings and summaries never depend on map iteration.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		cache: map[string]any{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.decls = append(prog.decls, &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg})
			}
		}
	}
	return prog
}

// funcKey names a function uniquely across the program. types.Func
// pointers are not usable as keys here: a package type-checked from
// source and the same package materialized from export data (as an
// import of another package under analysis) yield distinct objects for
// the same function, and the interprocedural analyzers must treat them
// as one.
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// staticCallee resolves the function a call statically invokes: a
// package-level function (possibly qualified), a method on a concrete
// receiver, or a generic instantiation (resolved to its origin).
// Calls through interfaces, function values and closures return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if sel, isSel := info.Selections[fun]; isSel {
				if m, isFn := sel.Obj().(*types.Func); isFn {
					return m.Origin()
				}
				return nil
			}
			return fn.Origin() // package-qualified function
		}
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, isFn := info.Uses[id].(*types.Func); isFn {
				return fn.Origin() // explicit generic instantiation f[T](...)
			}
		}
	}
	return nil
}

// isConversion reports whether a CallExpr node is actually a type
// conversion T(x).
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// paramObjects returns the function's dataflow parameters in summary
// order: the receiver (for methods) first, then the declared parameters.
// Summaries index parameters by this order.
func paramObjects(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var objs []types.Object
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					objs = append(objs, obj)
				}
			}
		}
	}
	collect(decl.Recv)
	collect(decl.Type.Params)
	return objs
}

// argForParam maps a summary parameter index back to the argument
// expression at a call site: index 0 is the receiver for method calls
// (the selector's operand), later indexes the positional arguments.
// Returns nil when the shape doesn't line up (variadic overflow,
// method-value calls).
func argForParam(call *ast.CallExpr, isMethod bool, idx int) ast.Expr {
	if isMethod {
		if idx == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// callIsMethod reports whether the resolved callee of call is invoked as
// a method (receiver on the selector).
func callIsMethod(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	_, isSel := info.Selections[sel]
	return isSel
}
