// Package analysistest mirrors golang.org/x/tools/go/analysis/analysistest
// for the minimal framework in internal/lint/analysis: it runs one analyzer
// over small packages stored under testdata/src/<pkg>/ and checks the
// findings against `// want "regexp"` comments placed on the offending
// lines, exactly as the upstream harness does.
//
// Testdata packages may import only the standard library; imports are
// resolved from export data produced by `go list -export`, so the harness
// works offline with just the Go toolchain.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"fscache/internal/lint/analysis"
)

// Run applies a to each testdata/src/<pkg> package and reports mismatches
// between actual findings and // want expectations through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	RunAll(t, testdata, []*analysis.Analyzer{a}, pkgs...)
}

// RunAll is Run with several analyzers active at once, for fixtures whose
// suppressions name more than one analyzer (the runner reports a name
// that is not running as unknown). Expectations match findings from any
// of them, including the runner's own "fslint" meta-findings.
func RunAll(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runOne(t, testdata, analyzers, pkg)
	}
}

func runOne(t *testing.T, testdata string, analyzers []*analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("%s: no Go files in %s (%v)", pkg, dir, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	unit, err := loadDir(fset, pkg, names)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}

	findings, err := analysis.Run([]*analysis.Unit{unit}, analyzers)
	if err != nil {
		t.Fatalf("%s: running analyzers: %v", pkg, err)
	}

	wants := expectations(t, fset, unit)
	for _, f := range findings {
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		if !wants.match(key, f.Message) {
			t.Errorf("%s:%d: unexpected finding: %s", f.Pos.Filename, f.Pos.Line, f.Message)
		}
	}
	for key, res := range wants {
		for _, w := range res {
			if !w.matched {
				t.Errorf("%s:%d: expected finding matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

// loadDir parses and type-checks one testdata package.
func loadDir(fset *token.FileSet, pkgPath string, filenames []string) (*analysis.Unit, error) {
	var files []*ast.File
	imports := map[string]bool{}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path != "unsafe" {
				imports[path] = true
			}
		}
	}

	imp, err := stdImporter(fset, imports)
	if err != nil {
		return nil, err
	}

	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &analysis.Unit{
		PkgPath: pkgPath,
		PkgName: pkg.Name(),
		Fset:    fset,
		Files:   files,
		Pkg:     pkg,
		Info:    info,
	}, nil
}

// stdImporter resolves the given standard-library import paths (plus their
// transitive dependencies) from `go list -export` output.
func stdImporter(fset *token.FileSet, imports map[string]bool) (types.Importer, error) {
	exports := map[string]string{}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)

		args := append([]string{"list", "-deps", "-export", "-json", "--"}, paths...)
		cmd := exec.Command("go", args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go list %v: %v\n%s", paths, err, stderr.String())
		}
		dec := json.NewDecoder(&stdout)
		for {
			var p struct {
				ImportPath string
				Export     string
			}
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return analysis.NewExportImporter(fset, exports), nil
}

type lineKey struct {
	file string
	line int
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

type expectationSet map[lineKey][]*expectation

// wantRE extracts the body of a // want comment. It is not anchored to
// the comment start: an expectation may trail other comment content on
// the same line (`//fs:guardedby mu // want "..."`), which is the only
// way to expect a finding reported at a directive's own position.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// quotedRE extracts each double- or back-quoted regexp from a want body.
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"` + "|`[^`]*`")

// expectations scans the unit's comments for // want "re" ["re" ...] and
// indexes them by the comment's own line.
func expectations(t *testing.T, fset *token.FileSet, unit *analysis.Unit) expectationSet {
	t.Helper()
	set := expectationSet{}
	for _, f := range unit.AllASTs() {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := quotedRE.FindAllString(m[1], -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					text, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, text, err)
					}
					key := lineKey{pos.Filename, pos.Line}
					set[key] = append(set[key], &expectation{re: re})
				}
			}
		}
	}
	return set
}

// match consumes the first unmatched expectation on key that matches msg.
func (s expectationSet) match(key lineKey, msg string) bool {
	for _, w := range s[key] {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
