package checks

import (
	"go/ast"
	"go/types"

	"fpsa/internal/tools/fpsavet/analysis"
)

// deterministicPkgs are the bit-exact packages: every result they
// produce must be identical for any worker count, chip count, or run —
// the property the PR 2–4 equivalence tests pin. Subpackages inherit the
// guard.
var deterministicPkgs = []string{
	"fpsa/internal/place",
	"fpsa/internal/route",
	"fpsa/internal/shard",
	"fpsa/internal/mapper",
	"fpsa/internal/synth",
	"fpsa/internal/xbar",
	"fpsa/internal/spike",
	"fpsa/internal/device",
}

// globalRandFuncs are the package-level math/rand (and math/rand/v2)
// functions that draw from the shared global source. Seeded *rand.Rand
// streams are fine — they are how the repo does reproducible noise — so
// methods never match.
var globalRandFuncs = map[string]bool{
	"Int": true, "Int31": true, "Int31n": true, "Int63": true, "Int63n": true,
	"Intn": true, "Uint32": true, "Uint64": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true, "Shuffle": true,
	"Read": true, "Seed": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// Determinism flags the four nondeterminism sources inside the
// bit-exact packages: ranging over a map, drawing from the global
// math/rand source, reading time.Now, and reading the process
// environment (os.Getenv, os.LookupEnv, os.Environ). An audited site is
// excused with a //fpsa:nondet <reason> directive on the same line or
// the line above; a directive without a reason is itself a finding.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flags map iteration, global math/rand, time.Now and environment reads inside the " +
		"bit-exact packages (internal/{place,route,shard,mapper,synth,xbar,spike,device})",
	Run: runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	guarded := false
	for _, p := range deterministicPkgs {
		if underPath(pass.Pkg.Path(), p) {
			guarded = true
			break
		}
	}
	if !guarded {
		return nil
	}
	report := func(pos ast.Node, format string, args ...any) {
		if reason, ok := pass.Directive("nondet", pos.Pos()); ok {
			if reason == "" {
				pass.Report(pos.Pos(), "//fpsa:nondet directive needs a reason; write //fpsa:nondet <why this is safe>")
			}
			return
		}
		pass.Report(pos.Pos(), format, args...)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.RangeStmt:
				if t := pass.TypeOf(node.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						report(node, "map iteration order is nondeterministic in a bit-exact package; range over sorted keys (or annotate //fpsa:nondet <reason>)")
					}
				}
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[node.Sel]
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn) are seeded and fine
				}
				switch fn.Pkg().Path() {
				case "math/rand", "math/rand/v2":
					if globalRandFuncs[fn.Name()] {
						report(node, "global math/rand source in a bit-exact package; use a seeded *rand.Rand (or annotate //fpsa:nondet <reason>)")
					}
				case "time":
					if fn.Name() == "Now" {
						report(node, "time.Now in a bit-exact package makes results time-dependent; plumb timings in (or annotate //fpsa:nondet <reason>)")
					}
				case "os":
					switch fn.Name() {
					case "Getenv", "LookupEnv", "Environ":
						report(node, "os.%s in a bit-exact package makes results depend on the process environment; take the value as a parameter (or annotate //fpsa:nondet <reason>)", fn.Name())
					}
				}
			}
			return true
		})
	}
	return nil
}
