// Package checks holds the fpsavet analyzers: the project-specific
// compile-time invariants of this repository, each one born from a bug
// class the equivalence tests only caught after the fact.
//
//   - determinism: the bit-exact compile/execute packages must not
//     iterate maps, draw from the global math/rand source, read the
//     wall clock, or read the process environment — the exact
//     nondeterminism class behind the PR 2 Dijkstra-seeding and PR 1
//     frozen-RNG bugs. Audited exceptions are annotated
//     //fpsa:nondet <reason>.
//   - ctxflow: context flows from the caller. Library code must not
//     synthesize context.Background()/TODO(), and a function that
//     receives a ctx must pass it on rather than detach its callees —
//     the PR 5 prompt-cancellation guarantee depends on an unbroken
//     chain.
//   - errwrap: the PR 5 error taxonomy stays closed. An error formatted
//     into another error uses %w so errors.Is still sees the sentinel,
//     and the public fpsa package never mints a sentinel-free error
//     inside a function body.
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"fpsa/internal/tools/fpsavet/analysis"
)

// RootPath is the import path of the repository's public package — the
// boundary the errwrap analyzer guards.
const RootPath = "fpsa"

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasCtxParam reports whether the function type declares a
// context.Context parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if t := pass.TypeOf(field.Type); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// calleeObj resolves the package-level function a call invokes, through
// either a plain identifier or a pkg.Name selector.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// underPath reports whether pkgPath is prefix itself or below it.
func underPath(pkgPath, prefix string) bool {
	return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
}
