package checks

import (
	"go/ast"
	"go/token"

	"fpsa/internal/tools/fpsavet/analysis"
)

// Ctxflow keeps the context chain unbroken, the property the PR 5
// prompt-cancellation guarantee rests on. Two rules:
//
//  1. Library code never synthesizes a context: context.Background() and
//     context.TODO() belong to program entry points (package main under
//     cmd/ and examples/) and tests, not to packages whose callers
//     already hold a ctx.
//  2. A function that receives a context.Context passes it on: calling
//     context.Background()/TODO() while a ctx parameter is in scope
//     detaches the callee from the caller's cancellation.
//
// One idiom is deliberately exempt: the nil-guard default
// (`ctx = context.Background()` assigned to an existing ctx variable,
// the documented nil-tolerant entry pattern of the public API).
var Ctxflow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/TODO() in library code and in any " +
		"function that already receives a context.Context",
	Run: runCtxflow,
}

func runCtxflow(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	entrypointPkg := pass.Pkg.Name() == "main" ||
		underPath(path, RootPath+"/cmd") || underPath(path, RootPath+"/examples")

	for _, f := range pass.Files {
		// Pre-pass: collect nil-guard defaults — `ctx = context.Background()`
		// assigned (not defined) to a variable that is already a
		// context.Context.
		nilGuard := make(map[*ast.CallExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isCtxConstructor(pass, call) {
				return true
			}
			if t := pass.TypeOf(as.Lhs[0]); t != nil && isContextType(t) {
				nilGuard[call] = true
			}
			return true
		})

		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Track the function stack so a ctx parameter on any
			// enclosing function (including closures) counts as in scope.
			ctxDepth := 0
			if hasCtxParam(pass, fd.Type) {
				ctxDepth = 1
			}
			var stack []int // 1 if the pushed func literal declares a ctx param
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					if len(stack) > 0 {
						ctxDepth -= stack[len(stack)-1]
						stack = stack[:len(stack)-1]
					}
					return true
				}
				if lit, ok := n.(*ast.FuncLit); ok {
					has := 0
					if hasCtxParam(pass, lit.Type) {
						has = 1
					}
					stack = append(stack, has)
					ctxDepth += has
					return true
				}
				stack = append(stack, 0)
				call, ok := n.(*ast.CallExpr)
				if !ok || !isCtxConstructor(pass, call) || nilGuard[call] {
					return true
				}
				name := "Background"
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					name = sel.Sel.Name
				}
				switch {
				case ctxDepth > 0:
					pass.Report(call.Pos(), "function already receives a context.Context; pass it (or a context derived from it) instead of context.%s()", name)
				case !entrypointPkg:
					pass.Report(call.Pos(), "context.%s() in library code severs the caller's cancellation; accept a ctx parameter instead", name)
				}
				return true
			})
		}
	}
	return nil
}

// isCtxConstructor reports whether call invokes context.Background or
// context.TODO.
func isCtxConstructor(pass *analysis.Pass, call *ast.CallExpr) bool {
	obj := calleeObj(pass, call)
	return analysis.IsNamed(obj, "context", "Background") || analysis.IsNamed(obj, "context", "TODO")
}
