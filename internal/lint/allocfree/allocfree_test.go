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

//fs:allocfree
func Grown() []byte { return grow[byte](8) }

func grow[T any](n int) []T {
	return make([]T, n)
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

	// The audit reports the `x := 0` moved to the heap (line 7) and grow's
	// make inlined into Grown (line 18), but not the same make again at
	// grow's name (line 20), where the compiler reports it for the
	// grow[byte] wrapper; the walk reports the make itself (line 21).
	var audit []int
	var downgraded, made int
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "escape audit"):
			audit = append(audit, f.Pos.Line)
		case strings.Contains(f.Message, "address-of composite literal"):
			downgraded++ // should have been dropped by the compiler's proof
		case strings.Contains(f.Message, "make allocates") && f.Pos.Line == 21:
			made++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if len(audit) != 2 || audit[0] != 7 || audit[1] != 18 {
		t.Errorf("escape-audit findings at lines %v, want [7 18]: %v", audit, findings)
	}
	if made != 1 {
		t.Errorf("got %d findings on grow's make, want 1: %v", made, findings)
	}
	if downgraded != 0 {
		t.Errorf("compiler-refuted composite-literal finding was not downgraded: %v", findings)
	}
}
