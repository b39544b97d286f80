package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Spanpair checks that every span opened with (*trace.Span).Begin /
// Beginf is closed: the result must not be discarded, and a span bound to
// a local variable must have End called on it somewhere in the enclosing
// function (typically `defer sp.End()`). A span that escapes the
// function — returned, passed as an argument, stored — is assumed closed
// by its new owner. An unended span exports a wrong duration: its
// elapsed-so-far time at snapshot, not the phase's wall time.
var Spanpair = &Analyzer{
	Name: "spanpair",
	Doc:  "every (*trace.Span).Begin/Beginf result must be ended (defer sp.End()) or escape",
	Run:  runSpanpair,
}

// isTraceBegin matches a call of a trace method named Begin or Beginf —
// (*trace.Span).Begin/Beginf, the package's only span openers.
func isTraceBegin(info *types.Info, call *ast.CallExpr) (string, bool) {
	pkg, name, ok := calleeMethod(info, call)
	if !ok || !isInternalPkg(pkg, "trace") || (name != "Begin" && name != "Beginf") {
		return "", false
	}
	return "Span." + name, true
}

// spanBinding is one `sp := parent.Begin(...)` (or `=`, or `var sp = ...`)
// inside a function, keyed for the later End/escape scan.
type spanBinding struct {
	obj  types.Object
	pos  token.Pos
	name string // Span.Begin or Span.Beginf, for the message
}

func runSpanpair(p *Pass) error {
	// bindings groups span-bound variables by enclosing function literal
	// or declaration, so each function body is scanned once.
	bindings := map[ast.Node][]spanBinding{}
	var funcs []ast.Node // deterministic iteration order over bindings

	for _, f := range p.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			name, ok := isTraceBegin(p.Info, call)
			if !ok || len(stack) == 0 {
				return
			}
			parent := stack[len(stack)-1]
			switch parent := parent.(type) {
			case *ast.ExprStmt:
				p.Reportf(call.Pos(),
					"result of trace.%s discarded: the span can never be ended; bind it and defer End", name)
			case *ast.AssignStmt:
				ident := assignTarget(parent, call)
				if ident == nil {
					return // multi-value or complex LHS: treat as escape
				}
				if ident.Name == "_" {
					p.Reportf(call.Pos(),
						"result of trace.%s discarded (assigned to _): the span can never be ended", name)
					return
				}
				obj := p.Info.Defs[ident]
				if obj == nil {
					obj = p.Info.Uses[ident]
				}
				if obj == nil {
					return
				}
				if fn := enclosingFunc(stack); fn != nil {
					if bindings[fn] == nil {
						funcs = append(funcs, fn)
					}
					bindings[fn] = append(bindings[fn], spanBinding{obj, call.Pos(), name})
				}
			case *ast.ValueSpec:
				if len(parent.Names) != 1 {
					return
				}
				ident := parent.Names[0]
				if ident.Name == "_" {
					p.Reportf(call.Pos(),
						"result of trace.%s discarded (assigned to _): the span can never be ended", name)
					return
				}
				obj := p.Info.Defs[ident]
				if obj == nil {
					return
				}
				if fn := enclosingFunc(stack); fn != nil {
					if bindings[fn] == nil {
						funcs = append(funcs, fn)
					}
					bindings[fn] = append(bindings[fn], spanBinding{obj, call.Pos(), name})
				}
			default:
				// Argument, return value, struct field, map value, ...:
				// the span escapes and its new owner is responsible.
			}
		})
	}

	for _, fn := range funcs {
		ended, escaped := scanSpanUses(p, fn, bindings[fn])
		reported := map[types.Object]bool{}
		for _, b := range bindings[fn] {
			if ended[b.obj] || escaped[b.obj] || reported[b.obj] {
				continue
			}
			reported[b.obj] = true
			p.Reportf(b.pos,
				"trace span from trace.%s is never ended in this function: call End on every path (typically `defer sp.End()`)", b.name)
		}
	}
	return nil
}

// assignTarget returns the identifier on the LHS matching call on the
// RHS, or nil when the assignment shape is not a simple 1:1 binding.
func assignTarget(as *ast.AssignStmt, call *ast.CallExpr) *ast.Ident {
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) == call {
			if i < len(as.Lhs) {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					return id
				}
			}
			return nil
		}
	}
	return nil
}

// enclosingFunc returns the innermost function declaration or literal on
// the stack, or nil at package level.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// scanSpanUses walks one function body classifying every use of the
// span-bound objects: an `obj.End()` call marks it ended; any use other
// than a method call or a reassignment marks it escaped (conservatively
// assumed closed elsewhere).
func scanSpanUses(p *Pass, fn ast.Node, bs []spanBinding) (ended, escaped map[types.Object]bool) {
	ended = map[types.Object]bool{}
	escaped = map[types.Object]bool{}
	tracked := map[types.Object]bool{}
	for _, b := range bs {
		tracked[b.obj] = true
	}
	walkStack(fn, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Uses[id]
		if obj == nil || !tracked[obj] || len(stack) == 0 {
			return
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.SelectorExpr:
			if parent.X != id {
				return // obj is the selected field name, not the receiver
			}
			isCall := false
			if len(stack) >= 2 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == parent {
					isCall = true
				}
			}
			if !isCall {
				escaped[obj] = true // method value / field taken: escapes
				return
			}
			if parent.Sel.Name == "End" {
				ended[obj] = true
			}
			// Other span methods (Add, Append) are neutral.
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if lhs == id {
					return // reassignment target: neutral
				}
			}
			escaped[obj] = true // span copied into another variable
		default:
			escaped[obj] = true // argument, return, composite literal, ...
		}
	})
	return ended, escaped
}
