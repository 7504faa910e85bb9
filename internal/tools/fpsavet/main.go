// Command fpsavet is the repository's lint suite: a multichecker that
// enforces, at compile time, the three invariant classes the equivalence
// tests can only catch after the fact — determinism of the bit-exact
// packages, unbroken context flow, and the closed error taxonomy — plus
// the README-flag-table pass migrated from the retired docscheck binary.
// See docs/INVARIANTS.md for the rules and the //fpsa:nondet escape
// hatch.
//
// It is shaped like a golang.org/x/tools/go/analysis multichecker, but
// built entirely on the standard library (go/ast, go/types, and `go list
// -export` for dependency type information), because this build
// environment has no module proxy to fetch x/tools from; the analyzers
// would port to the real framework mechanically.
//
// Usage (from the repository root):
//
//	go run ./internal/tools/fpsavet ./...
//	go run ./internal/tools/fpsavet -docs=false ./internal/place
//
// Exit status is nonzero when any finding is reported. CI runs the suite
// ahead of the tests.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fpsa/internal/tools/fpsavet/analysis"
	"fpsa/internal/tools/fpsavet/checks"
)

func main() {
	docs := flag.Bool("docs", true, "also run the README flag-table pass (docscheck's first pass)")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, moduleDir, err := analysis.Load(".", patterns)
	if err != nil {
		fail(err)
	}
	if moduleDir == "" {
		fail(fmt.Errorf("patterns %v matched no packages in the fpsa module", patterns))
	}

	analyzers := []*analysis.Analyzer{
		checks.Determinism,
		checks.Ctxflow,
		checks.Errwrap,
	}

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fail(err)
		}
		diags = append(diags, ds...)
	}
	analysis.SortDiagnostics(diags)

	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !filepath.IsAbs(rel) {
				pos.Filename = rel
			}
		}
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}

	problems := 0
	if *docs {
		flagProblems, err := checks.CheckFlagDocs(moduleDir)
		if err != nil {
			fail(err)
		}
		for _, p := range flagProblems {
			fmt.Fprintln(os.Stderr, p)
		}
		problems += len(flagProblems)
	}

	if n := len(diags) + problems; n > 0 {
		fmt.Fprintf(os.Stderr, "fpsavet: %d finding(s)\n", n)
		os.Exit(1)
	}
	fmt.Printf("fpsavet: %d package(s) clean\n", len(pkgs))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fpsavet:", err)
	os.Exit(1)
}
