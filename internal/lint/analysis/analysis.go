// Package analysis is a minimal, dependency-free re-implementation of the
// parts of the golang.org/x/tools/go/analysis API that this repository's
// linters need. The repository is built without third-party modules, so we
// cannot depend on x/tools itself; instead we mirror its Analyzer/Pass/
// Diagnostic shapes closely enough that the analyzers in internal/lint read
// like ordinary go/analysis analyzers and could be ported to the real
// framework by changing only import paths.
//
// The package also provides what the standard framework splits across
// go/packages and the checker drivers: a loader that type-checks the
// module's packages using export data produced by `go list -export`
// (internal/lint/analysis/load.go), and a runner that applies analyzers to
// loaded units and filters findings through `//fslint:ignore` suppression
// comments (internal/lint/analysis/run.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Mirrors x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //fslint:ignore comments. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by `fslint -list`.
	Doc string

	// Run applies the analyzer to a single package unit. It may be nil
	// for module-level analyzers that only set RunModule.
	Run func(*Pass) error

	// RunModule, if non-nil, applies the analyzer once to the whole set
	// of loaded units, with the shared call graph and //fs: annotation
	// index available. Module passes run after all unit passes.
	RunModule func(*ModulePass) error
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzed package unit to an Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer

	Fset *token.FileSet

	// Files are the syntax trees the analyzer should report on. For a
	// test-augmented unit these are only the _test.go files; the
	// library files they are compiled with appear in OtherFiles.
	Files []*ast.File

	// OtherFiles are the remaining files of the unit, present so
	// analyzers can resolve declarations (e.g. struct field markers)
	// that live outside the reportable set.
	OtherFiles []*ast.File

	// PkgPath is the unit's import path ("fscache/internal/core").
	PkgPath string

	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// AllFiles returns the unit's reportable and supporting files together.
func (p *Pass) AllFiles() []*ast.File {
	all := make([]*ast.File, 0, len(p.Files)+len(p.OtherFiles))
	all = append(all, p.Files...)
	all = append(all, p.OtherFiles...)
	return all
}

// ModulePass carries the whole loaded module to an Analyzer's RunModule
// function: every unit, the module call graph and the //fs: annotation
// index, so cross-package dataflow analyzers (allocfree, lockcheck) can
// follow calls and contracts across compilation units.
type ModulePass struct {
	Analyzer *Analyzer

	Fset *token.FileSet

	// Units are all loaded units, in load order.
	Units []*Unit

	// CallGraph indexes every function declaration in the loaded units
	// by its types.Func full name.
	CallGraph *CallGraph

	// Annotations is the parsed //fs: annotation index for the module.
	Annotations *Annotations

	// Report records one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
