package checks

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"fpsa/internal/tools/fpsavet/analysis"
)

// Errwrap keeps the PR 5 error taxonomy closed under errors.Is. Two
// rules:
//
//  1. Everywhere: fmt.Errorf that formats an error-typed argument
//     without a %w verb flattens the chain — errors.Is can no longer see
//     the sentinel underneath.
//  2. In the public fpsa package only: a function body that mints an
//     error with errors.New, or with fmt.Errorf carrying no %w at all,
//     sends a sentinel-free error across the public boundary; every
//     error the root package returns must wrap one of its Err*
//     sentinels. A non-constant fmt.Errorf format is reported there too:
//     it proves nothing, so the rule could not be checked. Package-level
//     declarations are exempt — that is where the sentinels themselves
//     are defined.
var Errwrap = &analysis.Analyzer{
	Name: "errwrap",
	Doc: "flags fmt.Errorf calls that format an error without %w, and " +
		"sentinel-free or dynamically formatted errors minted inside the " +
		"public fpsa package",
	Run: runErrwrap,
}

func runErrwrap(pass *analysis.Pass) error {
	isRoot := pass.Pkg.Path() == RootPath
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeObj(pass, call)
				switch {
				case analysis.IsNamed(obj, "fmt", "Errorf"):
					format, known := constFormat(pass, call)
					if !known {
						if isRoot {
							pass.Report(call.Pos(), "dynamic fmt.Errorf format in the public fpsa package; use a constant format with %%w so the error provably wraps an Err* sentinel")
						}
						return true // below the boundary a dynamic format proves nothing either way
					}
					hasW := strings.Contains(format, "%w")
					errArgs := 0
					for _, arg := range call.Args[1:] {
						if t := pass.TypeOf(arg); t != nil && types.Implements(t, errIface) {
							errArgs++
						}
					}
					switch {
					case errArgs > 0 && !hasW:
						pass.Report(call.Pos(), "fmt.Errorf formats an error argument without %%w; errors.Is cannot see through it — wrap with %%w")
					case isRoot && !hasW:
						pass.Report(call.Pos(), "sentinel-free error crosses the public fpsa boundary; wrap one of the Err* sentinels with %%w")
					}
				case analysis.IsNamed(obj, "errors", "New"):
					if isRoot {
						pass.Report(call.Pos(), "errors.New inside the public fpsa package mints an error outside the taxonomy; wrap an Err* sentinel with fmt.Errorf and %%w")
					}
				}
				return true
			})
		}
	}
	return nil
}

// constFormat returns the constant value of the call's first argument
// when it is a compile-time string.
func constFormat(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if len(call.Args) == 0 {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
