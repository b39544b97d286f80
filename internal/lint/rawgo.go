package lint

import (
	"go/ast"
)

// Rawgo flags ad-hoc goroutine fan-out in solver packages: `go`
// statements and sync.WaitGroup declarations. Solvers must dispatch
// through internal/par's persistent pool (For/Range/Do) so the harness's
// worker-count sweeps actually bound parallelism and the pool's steal/
// chunk statistics stay truthful; a bare `go func` escapes both.
var Rawgo = &Analyzer{
	Name: "rawgo",
	Doc:  "forbid bare goroutines and sync.WaitGroup fan-out in solver packages; use the par pool",
	Run:  runRawgo,
}

func runRawgo(p *Pass) error {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.Reportf(n.Pos(),
					"goroutine spawned directly in solver code: route fan-out through internal/par (For/Range/Do) so worker-count sweeps and pool stats stay truthful")
			case *ast.ValueSpec:
				if n.Type != nil && p.typeIsWaitGroup(n.Type) {
					p.Reportf(n.Pos(),
						"sync.WaitGroup in solver code: ad-hoc fan-out bypasses the par pool; use par.Do/par.For instead")
				}
			case *ast.Field:
				if n.Type != nil && p.typeIsWaitGroup(n.Type) {
					p.Reportf(n.Pos(),
						"sync.WaitGroup in solver code: ad-hoc fan-out bypasses the par pool; use par.Do/par.For instead")
				}
			}
			return true
		})
	}
	return nil
}

func (p *Pass) typeIsWaitGroup(expr ast.Expr) bool {
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	return namedFrom(tv.Type, "sync", "WaitGroup")
}
