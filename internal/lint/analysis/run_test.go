package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"fscache/internal/lint/allocfree"
	"fscache/internal/lint/analysis"
	"fscache/internal/lint/analysis/analysistest"
	"fscache/internal/lint/lockcheck"
)

// parseUnit type-checks one import-free source file into a Unit.
func parseUnit(t *testing.T, src string) *analysis.Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewTypesInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Unit{
		PkgPath: "p", PkgName: "p", Fset: fset,
		Files: []*ast.File{f}, Pkg: pkg, Info: info,
	}
}

// varFlagger reports every package-level var by name.
var varFlagger = &analysis.Analyzer{
	Name: "flag",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if vs, ok := n.(*ast.ValueSpec); ok {
					pass.Reportf(vs.Pos(), "var %s", vs.Names[0].Name)
				}
				return true
			})
		}
		return nil
	},
}

// TestUnknownIgnoreRejected: a typo'd analyzer name in //fslint:ignore
// must become a finding, not a silent no-op.
func TestUnknownIgnoreRejected(t *testing.T) {
	unit := parseUnit(t, `package p

//fslint:ignore allocfreee the trailing e is a typo
var X = 1
`)
	findings, err := analysis.Run([]*analysis.Unit{unit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != analysis.MetaAnalyzer ||
		!strings.Contains(f.Message, `unknown analyzer "allocfreee"`) {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestStaleIgnoreSameRunnerDefaults: the runner judges a suppression
// against the analyzers it runs, so one naming a running analyzer that
// reported nothing on its line is stale.
func TestStaleIgnoreSameRunnerDefaults(t *testing.T) {
	unit := parseUnit(t, `package p

func f() {
	//fslint:ignore flag nothing below is a var
	_ = 1
}
`)
	findings, err := analysis.Run([]*analysis.Unit{unit}, []*analysis.Analyzer{varFlagger})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "//fslint:ignore flag suppresses nothing") {
		t.Errorf("got %v, want one stale-suppression finding", findings)
	}
}

// TestSuppressionCoversOneLine: a comment that follows code covers only
// its own line, and a comment on a line of its own covers only the line
// below, so the flagged line after each one is still reported.
func TestSuppressionCoversOneLine(t *testing.T) {
	unit := parseUnit(t, `package p

var A = 1 //fslint:ignore flag trailing: this line only
var B = 2

//fslint:ignore flag own line: the line below only
var C = 3
var D = 4
`)
	findings, err := analysis.Run([]*analysis.Unit{unit}, []*analysis.Analyzer{varFlagger})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Message)
	}
	if strings.Join(got, ";") != "var B;var D" {
		t.Errorf("got findings %v, want exactly var B and var D", findings)
	}
}

// TestStaleIgnore runs allocfree and lockcheck so the fixture's
// suppressions name running analyzers: live, partially stale, fully stale
// and typo'd comments.
func TestStaleIgnore(t *testing.T) {
	analysistest.RunAll(t, "testdata", []*analysis.Analyzer{
		allocfree.New(allocfree.Options{}),
		lockcheck.New(),
	}, "stale")
}
