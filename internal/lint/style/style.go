// Package style implements the fslint analyzer for three single-file
// conventions, each named at the start of its findings:
//
//   - floateq: no ==/!= between floating-point expressions outside
//     _test.go files. The simulator compares futility ranks, miss ratios
//     and scaled α·f values all over the place, and an exact float
//     comparison silently depends on the sequence of roundings. Use
//     stats.Feq / stats.FeqEps, or compare the underlying integers.
//   - panicstyle: outside package main and _test.go files, a panic
//     argument is a string whose value — or, for a concatenation like
//     `"core: write: " + err.Error()` or a fmt.Sprintf call, whose
//     constant prefix — starts with the package name and ": ", so a
//     panic in a long experiment names the subsystem that detected it.
//   - tswrap: no raw -, <, >, <= or >= on a struct field marked
//     //fslint:wrap8. The coarse-grain timestamp LRU of §V keeps uint8
//     clocks that wrap mod 256 by design, and raw arithmetic on them
//     inverts the ordering once a clock wraps. Only functions whose doc
//     comment carries //fslint:wrapsafe (futility.tsDist) may compute the
//     modular distance.
//
// A deliberate exception is suppressed with //fslint:ignore style <why>.
package style

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"fscache/internal/lint/analysis"
)

// Analyzer checks the floateq, panicstyle and tswrap conventions.
var Analyzer = &analysis.Analyzer{
	Name: "style",
	Doc: "floateq: no float ==/!= outside tests (use stats.Feq); " +
		`panicstyle: panic messages start "pkg: "; ` +
		"tswrap: no raw -, <, >, <=, >= on //fslint:wrap8 timestamps outside a //fslint:wrapsafe helper",
	Run: run,
}

func run(pass *analysis.Pass) error {
	marked := markedFields(pass)
	prefix := pass.Pkg.Name() + ": "
	for _, f := range pass.Files {
		test := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		panics := !test && pass.Pkg.Name() != "main"
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			wrapsafe := ok && hasDirective(fd.Doc, "fslint:wrapsafe")
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if !test && (n.Op == token.EQL || n.Op == token.NEQ) &&
						(isFloat(pass.TypesInfo.TypeOf(n.X)) || isFloat(pass.TypesInfo.TypeOf(n.Y))) {
						pass.Reportf(n.OpPos,
							"floateq: floating-point %s comparison; use stats.Feq/stats.FeqEps or restructure to compare the underlying integers",
							n.Op)
					}
					if !wrapsafe && len(marked) > 0 && wrapOrdered(n.Op) &&
						(touchesMarked(pass, marked, n.X) || touchesMarked(pass, marked, n.Y)) {
						pass.Reportf(n.OpPos,
							"tswrap: raw %s on 8-bit wrapping timestamp field; use the //fslint:wrapsafe modular-distance helper", n.Op)
					}
				case *ast.CallExpr:
					if panics && isBuiltinPanic(pass, n.Fun) && len(n.Args) == 1 {
						checkPanicArg(pass, n.Args[0], prefix)
					}
				}
				return true
			})
		}
	}
	return nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinPanic(pass *analysis.Pass, fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func checkPanicArg(pass *analysis.Pass, arg ast.Expr, prefix string) {
	lit, ok := constantPrefix(pass, arg)
	switch {
	case !ok:
		pass.Reportf(arg.Pos(),
			"panicstyle: panic argument must be a string constant (or constant-prefixed concatenation) starting with %q", prefix)
	case !strings.HasPrefix(lit, prefix):
		pass.Reportf(arg.Pos(), "panicstyle: panic message %q must start with %q", lit, prefix)
	}
}

// constantPrefix returns the constant string value of e, or of e's leftmost
// operand when e is a chain of + concatenations, or of e's format string
// when e is a fmt.Sprintf call.
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
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || len(x.Args) == 0 {
				return "", false
			}
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !ok || fn.FullName() != "fmt.Sprintf" {
				return "", false
			}
			e = x.Args[0]
		default:
			return "", false
		}
	}
}

func wrapOrdered(op token.Token) bool {
	switch op {
	case token.SUB, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// markedFields collects the objects of struct fields whose declaration
// carries a //fslint:wrap8 directive, searching the whole unit so that
// test files see markers from library files.
func markedFields(pass *analysis.Pass) map[types.Object]bool {
	marked := map[types.Object]bool{}
	for _, f := range pass.AllFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !hasDirective(field.Doc, "fslint:wrap8") && !hasDirective(field.Comment, "fslint:wrap8") {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

// hasDirective scans the raw comment list: CommentGroup.Text strips
// `//tool:directive` comments, so it cannot be used here.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, directive) {
			return true
		}
	}
	return false
}

// touchesMarked reports whether e reads a marked field anywhere inside it
// (directly, or through an index expression like c.ts[line]).
func touchesMarked(pass *analysis.Pass, marked map[types.Object]bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && marked[pass.TypesInfo.Uses[sel.Sel]] {
			found = true
		}
		return !found
	})
	return found
}
