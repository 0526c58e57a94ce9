package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Unit is one type-checked compilation unit: either a package's library
// files, or the package re-checked together with its in-package _test.go
// files, or an external foo_test package. Units are what analyzers run on.
type Unit struct {
	PkgPath string
	PkgName string

	// Dir is the package's source directory on disk. It is empty for
	// units synthesized outside `go list` (the analysistest harness), in
	// which case toolchain-backed checks (the allocfree escape audit)
	// are skipped for the unit.
	Dir string

	// Test marks units whose reportable files are _test.go files (both
	// in-package and external test packages).
	Test bool

	Fset *token.FileSet

	// Files are the unit's reportable syntax trees; OtherFiles complete
	// the unit (library files inside a test unit).
	Files      []*ast.File
	OtherFiles []*ast.File

	Pkg  *types.Package
	Info *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	Standard     bool
	DepOnly      bool
	ForTest      string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// Load enumerates the packages matched by patterns (relative to dir),
// type-checks each from source and returns the resulting units: one per
// package plus one per non-empty in-package or external test set. Imports —
// both standard-library and intra-module — are resolved from compiler
// export data reported by `go list -export`, so loading needs only the Go
// toolchain already present for builds.
func Load(dir string, patterns []string) ([]*Unit, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()

	// Export data for every dependency, keyed by import path. Units are
	// compiled against the plain packages, so plain export data wins; but a
	// dependency that transitively imports a package under test is listed
	// ONLY as its test variant ("p [q.test]") when q is the sole pattern —
	// e.g. difftest under `fslint ./internal/core/` — so variant export
	// data (same package, compiled against the augmented deps) fills the
	// gaps. Synthesized ".test" main packages carry no exports either way.
	exports := make(map[string]string)
	for _, p := range pkgs {
		if strings.HasSuffix(p.ImportPath, ".test") || p.Export == "" {
			continue
		}
		path := p.ImportPath
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = path[:i]
		}
		if _, ok := exports[path]; !ok || p.ForTest == "" && !strings.Contains(p.ImportPath, " ") {
			exports[path] = p.Export
		}
	}

	imp := NewExportImporter(fset, exports)

	var units []*Unit
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || p.ForTest != "" ||
			strings.Contains(p.ImportPath, " ") || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by fslint", p.ImportPath)
		}

		lib, err := parseAll(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		if len(lib) > 0 {
			u, err := check(fset, imp, p.ImportPath, lib, nil)
			if err != nil {
				return nil, err
			}
			u.Dir = p.Dir
			units = append(units, u)
		}
		if len(p.TestGoFiles) > 0 {
			tests, err := parseAll(fset, p.Dir, p.TestGoFiles)
			if err != nil {
				return nil, err
			}
			u, err := check(fset, imp, p.ImportPath, tests, lib)
			if err != nil {
				return nil, err
			}
			u.Dir = p.Dir
			u.Test = true
			units = append(units, u)
		}
		if len(p.XTestGoFiles) > 0 {
			xtests, err := parseAll(fset, p.Dir, p.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			// An external test sees the package as its in-package test files
			// augment it (export_test.go), so it imports what go list built
			// for this test binary, "q [p.test]", ahead of the plain builds.
			forTest := maps.Clone(exports)
			for _, q := range pkgs {
				if i := strings.IndexByte(q.ImportPath, ' '); q.ForTest == p.ImportPath && q.Export != "" && i >= 0 {
					forTest[q.ImportPath[:i]] = q.Export
				}
			}
			u, err := check(fset, NewExportImporter(fset, forTest), p.ImportPath+"_test", xtests, nil)
			if err != nil {
				return nil, err
			}
			u.Dir = p.Dir
			u.Test = true
			units = append(units, u)
		}
	}
	return units, nil
}

// goList runs `go list -deps -test -export -json` and decodes the stream.
// -deps -test pulls in export data for every transitive dependency,
// including test-only ones, so type-checking never needs the network.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-deps", "-test", "-export", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func parseAll(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks reportable+support as one package and wraps the result
// in a Unit whose Files are just the reportable set.
func check(fset *token.FileSet, imp types.Importer, path string, reportable, support []*ast.File) (*Unit, error) {
	all := make([]*ast.File, 0, len(reportable)+len(support))
	all = append(all, support...)
	all = append(all, reportable...)

	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, all, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Unit{
		PkgPath:    path,
		PkgName:    pkg.Name(),
		Fset:       fset,
		Files:      reportable,
		OtherFiles: support,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// NewTypesInfo returns a types.Info with every map analyzers rely on
// allocated. Shared with the analysistest harness.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// exportImporter resolves imports from compiler export data files. It wraps
// the gc importer with a lookup over the path→file map from `go list`.
type exportImporter struct {
	gc types.ImporterFrom
}

// NewExportImporter returns an importer that reads compiler export data
// from the given import-path→file map (as reported by `go list -export`).
func NewExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &exportImporter{gc: importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)}
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.ImportFrom(path, "", 0)
}
