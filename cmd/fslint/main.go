// Command fslint runs the repository's custom static analyzers over Go
// packages, in the spirit of a go/analysis multichecker. It enforces the
// simulator's determinism, allocation, concurrency and style contracts:
//
//	allocfree    //fs:allocfree functions (and everything they reach) must
//	             not heap-allocate or format inline inside panic();
//	             cross-checked against the compiler's own escape analysis
//	             (-gcflags=-m)
//	determinism  no math/rand, wall-clock reads or order-sensitive map
//	             iteration in simulation packages
//	lockcheck    //fs:guardedby fields accessed only under their mutex,
//	             //fs:lockorder acquisition order respected
//	style        floateq: no ==/!= between floating-point expressions;
//	             panicstyle: panic messages carry the "pkg: " prefix;
//	             tswrap: no raw arithmetic on 8-bit wrapping timestamps
//
// Usage:
//
//	go run ./cmd/fslint ./...
//	go run ./cmd/fslint ./internal/futility
//	go run ./cmd/fslint -list
//
// fslint exits 0 when the tree is clean, 1 when it has findings and 2 on a
// usage or load error, so it can gate CI. Output is one finding per line in
// file:line:col: message (analyzer) form, matched by
// .github/fslint-problem-matcher.json so findings annotate pull requests.
// Individual findings are suppressed in source with
//
//	//fslint:ignore <analyzer>[,<analyzer>] <reason>
//
// at the end of the offending line, or on a line of its own directly above
// it. The runner itself reports, under the name "fslint", a suppression
// naming an unknown analyzer, a suppression name that absorbed nothing, and
// a malformed //fs: annotation.
//
// The framework under internal/lint/analysis is a dependency-free mirror of
// golang.org/x/tools/go/analysis (this module deliberately has no
// third-party requirements), so the `go vet -vettool` protocol is not
// supported; run fslint directly instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fscache/internal/lint/allocfree"
	"fscache/internal/lint/analysis"
	"fscache/internal/lint/determinism"
	"fscache/internal/lint/lockcheck"
	"fscache/internal/lint/style"
)

var analyzers = []*analysis.Analyzer{
	allocfree.New(allocfree.Options{Escape: allocfree.GoBuildEscape}),
	determinism.Analyzer,
	lockcheck.New(),
	style.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages args name and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fslint [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(stderr, "fslint:", err)
		return 2
	}
	findings, err := analysis.Run(units, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "fslint:", err)
		return 2
	}

	cwd, _ := os.Getwd()
	for _, f := range findings {
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); cwd != "" && err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "fslint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
