// Package panicstyle implements the fslint analyzer that enforces the
// repository's panic-message convention.
//
// Library packages (ost, stats, futility, core, ...) panic with
// `"pkg: ..."`-prefixed messages so that a panic in a long experiment run
// immediately names the subsystem that detected the invariant violation.
// The analyzer requires every panic argument in a library package to be a
// string whose value — or, for concatenations like
// `"core: write: " + err.Error()`, whose constant prefix — starts with the
// package name followed by ": ".
//
// Packages named main (CLIs, examples) and _test.go files are exempt.
package panicstyle

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"fscache/internal/lint/analysis"
)

// Analyzer checks panic arguments against the "pkg: ..." convention.
var Analyzer = &analysis.Analyzer{
	Name: "panicstyle",
	Doc: `require panic() arguments in library packages to be strings prefixed "pkg: ", ` +
		"matching the convention in ost and stats",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	prefix := pass.Pkg.Name() + ": "
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isBuiltinPanic(pass, call.Fun) || len(call.Args) != 1 {
				return true
			}
			lit, ok := constantPrefix(pass, call.Args[0])
			switch {
			case !ok:
				pass.Reportf(call.Args[0].Pos(),
					"panic argument must be a string constant (or constant-prefixed concatenation) starting with %q", prefix)
			case !strings.HasPrefix(lit, prefix):
				pass.Reportf(call.Args[0].Pos(),
					"panic message %q must start with %q", lit, prefix)
			}
			return true
		})
	}
	return nil
}

func isBuiltinPanic(pass *analysis.Pass, fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// constantPrefix returns the constant string value of e, or of e's leftmost
// operand when e is a chain of + concatenations, or of e's format string
// when e is a fmt.Sprintf call (the repo's other sanctioned panic shape).
func constantPrefix(pass *analysis.Pass, e ast.Expr) (string, bool) {
	for {
		if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return constant.StringVal(tv.Value), true
		}
		switch x := e.(type) {
		case *ast.BinaryExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if !isSprintf(pass, x.Fun) || len(x.Args) == 0 {
				return "", false
			}
			e = x.Args[0]
		default:
			return "", false
		}
	}
}

func isSprintf(pass *analysis.Pass, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.FullName() == "fmt.Sprintf"
}
