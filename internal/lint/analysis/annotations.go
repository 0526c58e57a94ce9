package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// This file implements the //fs: annotation language shared by the module
// analyzers (DESIGN.md §13):
//
//	//fs:allocfree                  on a func/method declaration, an
//	                                interface method, or a func-typed
//	                                struct field: the function (and every
//	                                function it reaches) must not allocate.
//	//fs:guardedby <field>          on a struct field: the field may only
//	                                be accessed while the named sibling
//	                                sync.Mutex/RWMutex field is held on the
//	                                same receiver.
//	//fs:callerholds <field>[,...]  on a func/method declaration: the
//	                                caller is documented to hold the named
//	                                guards, so accesses inside need no
//	                                Lock of their own.
//	//fs:lockorder <T.f> <T.f>      on a struct type declaration: the
//	                                first mutex field must always be
//	                                acquired before the second.
//
// Annotations are directives (no space after //, like //go:noinline).
// Misplaced or malformed annotations are themselves diagnosed, attributed
// to the "fslint" meta-analyzer, so a typo cannot silently waive a
// contract.

// Annotations is the module-wide index of parsed //fs: annotations. All
// identities are string keys so they survive the re-type-checking of
// library files inside test units: functions by types.Func.FullName()
// (e.g. "(*fscache/internal/core.Cache).Access"), fields by
// "pkgpath.Type.field" (e.g. "fscache/internal/shardcache.shard.demand").
type Annotations struct {
	// AllocFree maps annotated function, method and interface-method
	// full names to the annotation position.
	AllocFree map[string]token.Pos

	// AllocFreeFields maps annotated func-typed struct fields (by field
	// key) to the annotation position: calls through such fields are
	// trusted allocation-free boundaries.
	AllocFreeFields map[string]token.Pos

	// Guards maps guarded fields (by field key) to their guard.
	Guards map[string]Guard

	// CallerHolds maps function full names to the guard field names the
	// caller is documented to hold.
	CallerHolds map[string][]string

	// LockOrders are the declared pairwise mutex acquisition orders.
	LockOrders []LockOrder

	// Diags are malformed-annotation diagnostics, reported by the
	// runner under the "fslint" name.
	Diags []Diagnostic
}

// Guard describes one //fs:guardedby contract.
type Guard struct {
	// Mutex is the sibling field name of the guarding mutex.
	Mutex string
	// RW reports whether the guard is a sync.RWMutex, in which case
	// read accesses may hold RLock instead of Lock.
	RW bool
	// Key is the guard mutex's own field key ("pkgpath.Type.field").
	Key string
	// Pos is the annotation position.
	Pos token.Pos
}

// LockOrder declares that the Before mutex field is always acquired
// before the After mutex field. Both are field keys.
type LockOrder struct {
	Before string
	After  string
	Pos    token.Pos
}

// FieldKey builds the canonical string identity of a struct field.
func FieldKey(pkgPath, typeName, fieldName string) string {
	return pkgPath + "." + typeName + "." + fieldName
}

// fsDirectiveRE matches one //fs: directive comment line. Like //go:
// directives there is no space after the slashes.
var fsDirectiveRE = regexp.MustCompile(`^//fs:([A-Za-z]+)(?:[ \t]+(.*?))?[ \t]*$`)

// ParseAnnotations builds the module annotation index from every unit's
// reportable files. Each source file is reportable in exactly one unit,
// so no annotation is parsed twice.
func ParseAnnotations(units []*Unit) *Annotations {
	ann := &Annotations{
		AllocFree:       map[string]token.Pos{},
		AllocFreeFields: map[string]token.Pos{},
		Guards:          map[string]Guard{},
		CallerHolds:     map[string][]string{},
	}
	for _, u := range units {
		for _, f := range u.Files {
			ann.parseFile(u, f)
		}
	}
	return ann
}

// fsLine is one parsed directive.
type fsLine struct {
	verb string
	args string
	pos  token.Pos
}

func (a *Annotations) diagf(pos token.Pos, format string, args ...interface{}) {
	a.Diags = append(a.Diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// parseFile scans one file's declarations for attached //fs: directives,
// then diagnoses any directive comment not attached to an annotatable
// declaration (e.g. inside a function body or on a var).
func (a *Annotations) parseFile(u *Unit, f *ast.File) {
	handled := map[*ast.Comment]bool{}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			a.parseFunc(u, d, directives(d.Doc, handled))
		case *ast.GenDecl:
			docLines := directives(d.Doc, handled)
			if d.Tok == token.TYPE {
				for i, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					lines := append(directives(ts.Doc, handled), directives(ts.Comment, handled)...)
					// A single-spec `type` decl's doc belongs to the spec.
					if i == 0 && len(d.Specs) == 1 {
						lines = append(docLines, lines...)
						docLines = nil
					}
					a.parseType(u, ts, lines, handled)
				}
			}
			for _, l := range docLines {
				a.diagf(l.pos, "//fs:%s is misplaced: it must be attached to a function, interface method, or struct field declaration", l.verb)
			}
			if d.Tok != token.TYPE {
				// var/const/import groups cannot carry contracts
				// (an //fs:allocfree on a method value does not
				// make the bound method allocation-free).
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, l := range append(directives(vs.Doc, handled), directives(vs.Comment, handled)...) {
							a.diagf(l.pos, "//fs:%s is misplaced: it cannot annotate a var or const declaration", l.verb)
						}
					}
				}
			}
		}
	}

	// Anything not consumed above is floating (inside a body, between
	// declarations, ...) and therefore has no effect: say so.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if handled[c] {
				continue
			}
			if m := fsDirectiveRE.FindStringSubmatch(c.Text); m != nil {
				a.diagf(c.Pos(), "//fs:%s is misplaced: it must be attached to a function, interface method, or struct field declaration", m[1])
			}
		}
	}
}

// directives extracts //fs: lines from a comment group, marking them
// handled.
func directives(cg *ast.CommentGroup, handled map[*ast.Comment]bool) []fsLine {
	if cg == nil {
		return nil
	}
	var out []fsLine
	for _, c := range cg.List {
		m := fsDirectiveRE.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		handled[c] = true
		args := m[2]
		// A trailing // starts an explanatory comment, not arguments.
		if i := strings.Index(args, "//"); i >= 0 {
			args = strings.TrimRight(args[:i], " \t")
		}
		out = append(out, fsLine{verb: m[1], args: args, pos: c.Pos()})
	}
	return out
}

// parseFunc handles directives on a function or method declaration.
func (a *Annotations) parseFunc(u *Unit, d *ast.FuncDecl, lines []fsLine) {
	if len(lines) == 0 {
		return
	}
	fn, _ := u.Info.Defs[d.Name].(*types.Func)
	if fn == nil {
		return
	}
	name := fn.FullName()
	for _, l := range lines {
		switch l.verb {
		case "allocfree":
			if l.args != "" {
				a.diagf(l.pos, "//fs:allocfree takes no arguments (got %q)", l.args)
				continue
			}
			a.AllocFree[name] = l.pos
		case "callerholds":
			guards := splitComma(strings.ReplaceAll(l.args, " ", ","))
			if len(guards) == 0 {
				a.diagf(l.pos, "//fs:callerholds needs at least one guard field name")
				continue
			}
			a.CallerHolds[name] = append(a.CallerHolds[name], guards...)
		case "guardedby":
			a.diagf(l.pos, "//fs:guardedby annotates struct fields, not functions")
		case "lockorder":
			a.diagf(l.pos, "//fs:lockorder annotates struct type declarations, not functions")
		default:
			a.diagf(l.pos, "unknown annotation //fs:%s", l.verb)
		}
	}
}

// parseType handles directives on a type declaration and its fields.
func (a *Annotations) parseType(u *Unit, ts *ast.TypeSpec, lines []fsLine, handled map[*ast.Comment]bool) {
	for _, l := range lines {
		switch l.verb {
		case "lockorder":
			a.parseLockOrder(u, ts, l)
		case "allocfree", "guardedby", "callerholds":
			a.diagf(l.pos, "//fs:%s cannot annotate a type declaration", l.verb)
		default:
			a.diagf(l.pos, "unknown annotation //fs:%s", l.verb)
		}
	}
	switch t := ts.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			a.parseStructField(u, ts, t, field, handled)
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			a.parseInterfaceMethod(u, m, handled)
		}
	}
}

// parseLockOrder handles //fs:lockorder Before.field After.field on a
// struct type declaration.
func (a *Annotations) parseLockOrder(u *Unit, ts *ast.TypeSpec, l fsLine) {
	parts := strings.Fields(l.args)
	if len(parts) != 2 {
		a.diagf(l.pos, "//fs:lockorder wants exactly two Type.field arguments, got %d", len(parts))
		return
	}
	keys := make([]string, 2)
	for i, p := range parts {
		dot := strings.LastIndexByte(p, '.')
		if dot <= 0 || dot == len(p)-1 {
			a.diagf(l.pos, "//fs:lockorder argument %q is not of the form Type.field", p)
			return
		}
		typeName, fieldName := p[:dot], p[dot+1:]
		obj := u.Pkg.Scope().Lookup(typeName)
		tn, _ := obj.(*types.TypeName)
		if tn == nil {
			a.diagf(l.pos, "//fs:lockorder: no type %q in package %s", typeName, u.Pkg.Path())
			return
		}
		st, _ := tn.Type().Underlying().(*types.Struct)
		if st == nil {
			a.diagf(l.pos, "//fs:lockorder: %s is not a struct type", typeName)
			return
		}
		var fieldType types.Type
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == fieldName {
				fieldType = st.Field(i).Type()
				break
			}
		}
		if fieldType == nil {
			a.diagf(l.pos, "//fs:lockorder: %s has no field %q", typeName, fieldName)
			return
		}
		if _, ok := IsMutex(fieldType); !ok {
			a.diagf(l.pos, "//fs:lockorder: %s.%s is not a sync.Mutex or sync.RWMutex", typeName, fieldName)
			return
		}
		keys[i] = FieldKey(u.Pkg.Path(), typeName, fieldName)
	}
	if keys[0] == keys[1] {
		a.diagf(l.pos, "//fs:lockorder: the two mutexes must differ")
		return
	}
	a.LockOrders = append(a.LockOrders, LockOrder{Before: keys[0], After: keys[1], Pos: l.pos})
}

// parseStructField handles directives on one struct field.
func (a *Annotations) parseStructField(u *Unit, ts *ast.TypeSpec, st *ast.StructType, field *ast.Field, handled map[*ast.Comment]bool) {
	lines := append(directives(field.Doc, handled), directives(field.Comment, handled)...)
	if len(lines) == 0 {
		return
	}
	if len(field.Names) == 0 {
		for _, l := range lines {
			a.diagf(l.pos, "//fs:%s cannot annotate an embedded field", l.verb)
		}
		return
	}
	for _, l := range lines {
		switch l.verb {
		case "guardedby":
			mutex := strings.TrimSpace(l.args)
			if mutex == "" || strings.ContainsAny(mutex, " \t,") {
				a.diagf(l.pos, "//fs:guardedby wants exactly one sibling mutex field name")
				continue
			}
			guardType, ok := siblingFieldType(u, st, mutex)
			if !ok {
				a.diagf(l.pos, "//fs:guardedby names %q, which is not a field of %s", mutex, ts.Name.Name)
				continue
			}
			rw, ok := IsMutex(guardType)
			if !ok {
				a.diagf(l.pos, "//fs:guardedby guard %s.%s is not a sync.Mutex or sync.RWMutex", ts.Name.Name, mutex)
				continue
			}
			g := Guard{
				Mutex: mutex,
				RW:    rw,
				Key:   FieldKey(u.Pkg.Path(), ts.Name.Name, mutex),
				Pos:   l.pos,
			}
			for _, name := range field.Names {
				if name.Name == mutex {
					a.diagf(l.pos, "//fs:guardedby: a mutex cannot guard itself")
					continue
				}
				a.Guards[FieldKey(u.Pkg.Path(), ts.Name.Name, name.Name)] = g
			}
		case "allocfree":
			// Accept any field whose type is (or names) a function type:
			// `f func()` and `f DecisionObserver` are both callable boundaries.
			ft := u.Info.TypeOf(field.Type)
			if ft == nil {
				continue
			}
			if _, ok := ft.Underlying().(*types.Signature); !ok {
				a.diagf(l.pos, "//fs:allocfree on a struct field requires a func-typed field")
				continue
			}
			for _, name := range field.Names {
				a.AllocFreeFields[FieldKey(u.Pkg.Path(), ts.Name.Name, name.Name)] = l.pos
			}
		case "callerholds":
			a.diagf(l.pos, "//fs:callerholds annotates functions, not fields")
		case "lockorder":
			a.diagf(l.pos, "//fs:lockorder annotates struct type declarations, not fields")
		default:
			a.diagf(l.pos, "unknown annotation //fs:%s", l.verb)
		}
	}
}

// parseInterfaceMethod handles directives on one interface method.
func (a *Annotations) parseInterfaceMethod(u *Unit, m *ast.Field, handled map[*ast.Comment]bool) {
	lines := append(directives(m.Doc, handled), directives(m.Comment, handled)...)
	if len(lines) == 0 || len(m.Names) == 0 {
		if len(lines) > 0 {
			for _, l := range lines {
				a.diagf(l.pos, "//fs:%s cannot annotate an embedded interface", l.verb)
			}
		}
		return
	}
	for _, l := range lines {
		switch l.verb {
		case "allocfree":
			for _, name := range m.Names {
				if fn, ok := u.Info.Defs[name].(*types.Func); ok {
					a.AllocFree[fn.FullName()] = l.pos
				}
			}
		default:
			a.diagf(l.pos, "//fs:%s cannot annotate an interface method (only //fs:allocfree can)", l.verb)
		}
	}
}

// siblingFieldType looks up a field by name in a struct literal's type.
func siblingFieldType(u *Unit, st *ast.StructType, name string) (types.Type, bool) {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				if tv, ok := u.Info.Types[f.Type]; ok {
					return tv.Type, true
				}
				if obj, ok := u.Info.Defs[n]; ok {
					return obj.Type(), true
				}
			}
		}
	}
	return nil, false
}

// IsMutex reports whether t (or what it points to) is sync.Mutex or
// sync.RWMutex; rw is true for RWMutex.
func IsMutex(t types.Type) (rw bool, ok bool) {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// ownerOf resolves the named struct type that declares fieldName, starting
// from the (possibly pointer) receiver type of a selector and following
// embedded fields breadth-first. It returns nil if the field is not found
// (e.g. the receiver is not a struct).
func ownerOf(t types.Type, fieldName string) *types.Named {
	type item struct{ t types.Type }
	queue := []item{{t}}
	seen := map[types.Type]bool{}
	for len(queue) > 0 {
		cur := queue[0].t
		queue = queue[1:]
		if p, ok := cur.Underlying().(*types.Pointer); ok {
			cur = p.Elem()
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		named, _ := cur.(*types.Named)
		st, _ := cur.Underlying().(*types.Struct)
		if st == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == fieldName {
				return named
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() {
				queue = append(queue, item{f.Type()})
			}
		}
	}
	return nil
}

// FieldKeyOf builds the field key for a resolved field selection: the
// declaring struct is found through embedding from recv.
func FieldKeyOf(recv types.Type, field *types.Var) (string, bool) {
	if field.Pkg() == nil {
		return "", false
	}
	owner := ownerOf(recv, field.Name())
	if owner == nil {
		return "", false
	}
	return FieldKey(field.Pkg().Path(), owner.Obj().Name(), field.Name()), true
}
