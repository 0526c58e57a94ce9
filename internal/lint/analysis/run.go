package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is a resolved diagnostic: analyzer name plus concrete position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// MetaAnalyzer is the name under which the runner itself reports findings
// about the lint apparatus: //fslint:ignore comments naming an analyzer
// that is not running, malformed //fs: annotations, and //fslint:ignore
// names that suppressed nothing.
const MetaAnalyzer = "fslint"

// Run applies the analyzers to the loaded units, which share one FileSet,
// and returns the surviving findings sorted by position. The sequence is:
//
//  1. //fslint:ignore comments are indexed module-wide; a comment naming
//     an analyzer that is not running is reported (under "fslint").
//  2. Per-unit passes run (Analyzer.Run).
//  3. The //fs: annotation index is built, malformed annotations are
//     reported under "fslint", and module passes run (Analyzer.RunModule)
//     over it and the call graph.
//  4. Every name in an //fslint:ignore comment that absorbed no finding
//     is reported under "fslint".
//
// Findings from steps 1–3 are filtered through the suppression index,
// which records which names absorbed something; step 4's findings are
// about the suppressions themselves and are never filtered.
func Run(units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	if len(units) == 0 {
		return nil, nil
	}
	fset := units[0].Fset
	known := map[string]bool{MetaAnalyzer: true}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	supp := indexSuppressions(fset, units)

	var findings []Finding
	report := func(analyzer string, d Diagnostic) {
		pos := fset.Position(d.Pos)
		if !supp.covers(analyzer, pos) {
			findings = append(findings, Finding{Analyzer: analyzer, Pos: pos, Message: d.Message})
		}
	}

	// 1. A typo'd name would otherwise suppress nothing and report nothing.
	for _, s := range supp.records {
		for _, name := range s.names {
			if !known[name] {
				report(MetaAnalyzer, Diagnostic{
					Pos:     s.pos,
					Message: fmt.Sprintf("//fslint:ignore names unknown analyzer %q", name),
				})
			}
		}
	}

	// 2. Per-unit passes.
	for _, u := range units {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			name := a.Name
			pass := &Pass{
				Analyzer:   a,
				Fset:       fset,
				Files:      u.Files,
				OtherFiles: u.OtherFiles,
				PkgPath:    u.PkgPath,
				Pkg:        u.Pkg,
				TypesInfo:  u.Info,
				Report:     func(d Diagnostic) { report(name, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, u.PkgPath, err)
			}
		}
	}

	// 3. Annotations and module passes.
	ann := ParseAnnotations(units)
	for _, d := range ann.Diags {
		report(MetaAnalyzer, d)
	}
	graph := NewCallGraph(units)
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		name := a.Name
		mp := &ModulePass{
			Analyzer:    a,
			Fset:        fset,
			Units:       units,
			CallGraph:   graph,
			Annotations: ann,
			Report:      func(d Diagnostic) { report(name, d) },
		}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}

	// 4. Stale suppressions. Unknown names were reported in step 1.
	for _, s := range supp.records {
		var unused []string
		for _, name := range s.names {
			if known[name] && !s.used[name] {
				unused = append(unused, name)
			}
		}
		var msg string
		switch {
		case len(unused) == 0:
			continue
		case len(unused) == len(s.names):
			msg = fmt.Sprintf("//fslint:ignore %s suppresses nothing; remove it", strings.Join(s.names, ","))
		default:
			msg = fmt.Sprintf("//fslint:ignore name %s suppresses nothing; drop it from the list", strings.Join(unused, ","))
		}
		findings = append(findings, Finding{Analyzer: MetaAnalyzer, Pos: fset.Position(s.pos), Message: msg})
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return dedupe(findings), nil
}

// dedupe drops exact duplicates from sorted findings (a module pass can
// reach the same diagnostic through several annotated roots).
func dedupe(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// ignoreRE matches suppression comments — //fslint:ignore name[,name...]
// reason — anchored to the start of the comment so that prose merely
// *mentioning* the syntax (an indented example in a doc comment, say)
// does not register a suppression.
var ignoreRE = regexp.MustCompile(`^//\s*fslint:ignore\s+([A-Za-z0-9_,]+)(.*)$`)

// suppRecord is one //fslint:ignore comment and, per name it lists,
// whether that name absorbed a finding in this run.
type suppRecord struct {
	pos   token.Pos
	names []string
	used  map[string]bool
}

// suppIndex indexes every suppression comment in the module by file and
// covered line. A comment that follows code covers only its own line; a
// comment on a line of its own covers only the line below it.
type suppIndex struct {
	byLine  map[string]map[int][]*suppRecord
	records []*suppRecord
}

// indexSuppressions scans every unit. Library files are re-parsed into
// test units as OtherFiles but share AST nodes and the fset, so records
// are deduped by position: each comment yields exactly one record no
// matter how many units its file appears in.
func indexSuppressions(fset *token.FileSet, units []*Unit) *suppIndex {
	idx := &suppIndex{byLine: map[string]map[int][]*suppRecord{}}
	seen := map[token.Pos]bool{}
	for _, u := range units {
		for _, f := range u.AllASTs() {
			var code map[int]bool // built on the file's first suppression
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRE.FindStringSubmatch(c.Text)
					if m == nil || seen[c.Pos()] {
						continue
					}
					seen[c.Pos()] = true
					if code == nil {
						code = codeLines(fset, f)
					}
					rec := &suppRecord{pos: c.Pos(), names: splitComma(m[1]), used: map[string]bool{}}
					idx.records = append(idx.records, rec)
					// A // comment runs to the end of its line, so any
					// code on that line comes before it.
					pos := fset.Position(c.Pos())
					line := pos.Line + 1
					if code[pos.Line] {
						line = pos.Line
					}
					byLine := idx.byLine[pos.Filename]
					if byLine == nil {
						byLine = map[int][]*suppRecord{}
						idx.byLine[pos.Filename] = byLine
					}
					byLine[line] = append(byLine[line], rec)
				}
			}
		}
	}
	return idx
}

// codeLines returns the lines of f on which a syntax node begins or ends.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// covers reports whether a finding by analyzer at pos is suppressed, and
// marks the absorbing comment used.
func (s *suppIndex) covers(analyzer string, pos token.Position) bool {
	hit := false
	for _, rec := range s.byLine[pos.Filename][pos.Line] {
		for _, name := range rec.names {
			if name == analyzer {
				rec.used[name] = true
				hit = true
			}
		}
	}
	return hit
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// AllASTs returns the unit's reportable and supporting files together.
func (u *Unit) AllASTs() []*ast.File {
	all := make([]*ast.File, 0, len(u.Files)+len(u.OtherFiles))
	all = append(all, u.Files...)
	all = append(all, u.OtherFiles...)
	return all
}
