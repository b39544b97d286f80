// Command symlint runs the repository's static-analysis suite
// (internal/lint): determinism, trace-pairing, parallel-runtime and
// interprocedural dataflow invariant checks over Go package patterns.
//
//	symlint [-json] [-C dir] [packages...]   # default ./...
//
// Findings print as file:line:col: [analyzer] message, one per line in a
// stable (file, line, analyzer) order, and the exit status is 1 when
// anything was found. -json emits the findings as a JSON array instead.
// -list prints the suite, sorted by name, with each analyzer's doc line
// and scope. -write-alloc-baseline regenerates each package's
// allocgate.baseline.json from the compiler's current escape analysis of
// its //lint:hotpath functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	list := flag.Bool("list", false, "list the analyzers and exit")
	writeAllocBaseline := flag.Bool("write-alloc-baseline", false, "regenerate allocgate.baseline.json for packages with //lint:hotpath functions and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
			if len(a.Scope) > 0 {
				fmt.Printf("             scope: %s\n", strings.Join(a.Scope, " "))
			}
			if len(a.Exclude) > 0 {
				fmt.Printf("             exempt: %s\n", strings.Join(a.Exclude, " "))
			}
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "symlint: %v\n", err)
		os.Exit(1)
	}

	if *writeAllocBaseline {
		wrote := 0
		for _, pkg := range pkgs {
			n, ok, err := lint.WriteAllocBaseline(pkg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "symlint: %s: %v\n", pkg.Path, err)
				os.Exit(1)
			}
			if ok {
				fmt.Printf("%s: %d grandfathered allocation(s)\n", pkg.Path, n)
				wrote++
			}
		}
		if wrote == 0 {
			fmt.Fprintln(os.Stderr, "symlint: no //lint:hotpath functions in the named packages")
		}
		return
	}

	diags, err := lint.Run(pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "symlint: %v\n", err)
		os.Exit(1)
	}

	if *jsonOut {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "symlint: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "symlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
