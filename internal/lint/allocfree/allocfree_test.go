package allocfree_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fscache/internal/lint/allocfree"
	"fscache/internal/lint/analysis"
	"fscache/internal/lint/analysis/analysistest"
)

func TestConstructs(t *testing.T) {
	analysistest.Run(t, "testdata", allocfree.New(allocfree.Options{}), "a")
}

// TestPanicFormatting: inline fmt formatting inside panic() is reported on
// an //fs:allocfree path and nowhere else.
func TestPanicFormatting(t *testing.T) {
	analysistest.Run(t, "testdata", allocfree.New(allocfree.Options{}), "hp", "free")
}

func TestAnnotationDiagnostics(t *testing.T) {
	analysistest.Run(t, "testdata", allocfree.New(allocfree.Options{}), "ann")
}

// TestEscapeAudit builds a real throwaway module so `go build -gcflags=-m`
// runs for real, and checks both audit directions: a compiler-visible
// escape the syntactic walk misses becomes a finding, and a syntactic
// finding the compiler refutes (a provably stack-allocated composite
// literal) is dropped.
func TestEscapeAudit(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module escapetest\n\ngo 1.22\n")
	write("esc.go", `package esc

type pair struct{ a, b int }

//fs:allocfree
func Leak() *int {
	x := 0
	return &x
}

//fs:allocfree
func Local(n int) int {
	p := &pair{a: n}
	return p.a
}
`)

	units, err := analysis.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	a := allocfree.New(allocfree.Options{Escape: allocfree.GoBuildEscape})
	findings, err := analysis.Run(units, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	var audit, downgraded int
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "escape audit"):
			audit++
			if f.Pos.Line != 7 { // the `x := 0` moved to the heap
				t.Errorf("escape-audit finding at line %d, wanted 7: %s", f.Pos.Line, f)
			}
		case strings.Contains(f.Message, "address-of composite literal"):
			downgraded++ // should have been dropped by the compiler's proof
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if audit != 1 {
		t.Errorf("got %d escape-audit findings, want 1: %v", audit, findings)
	}
	if downgraded != 0 {
		t.Errorf("compiler-refuted composite-literal finding was not downgraded: %v", findings)
	}
}
