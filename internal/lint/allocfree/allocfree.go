// Package allocfree implements the fslint analyzer that proves the
// steady-state zero-allocation contract of DESIGN.md §10 at lint time.
//
// Functions annotated //fs:allocfree — and everything they reach through
// static calls inside the loaded packages — must contain no
// heap-allocating construct: make/new, escaping composite literals,
// capturing closures that leave the frame, interface boxing (including
// implicit conversions at call sites and fmt-style variadic any), string
// concatenation and string<->slice conversions, appends that can grow a
// buffer the function does not own, go statements, and calls the
// call-graph walk cannot see through (un-annotated interface methods or
// func-typed fields, dynamic func values, functions outside the loaded
// packages other than the pure math/math/bits packages).
//
// Two deliberate exceptions keep the checker aligned with the runtime
// contract rather than a stricter one:
//
//   - Map assignments (m[k] = v) are allowed. The pipeline's address map
//     reaches a steady state where inserts reuse deleted slots; Go map
//     writes amortize to zero allocations there, and the packages'
//     TestAllocFree runs observe exactly that.
//   - Calls to functions whose name contains "panic" are not followed:
//     they are cold //go:noinline guard helpers, and a panicking path's
//     allocations are irrelevant. For the same reason the arguments of
//     panic(...) are not checked, except that an inline fmt formatting
//     call there is reported: it still puts an allocation site in the
//     verified body, so the formatting belongs in a cold *panic* helper.
//
// When built with an escape oracle (Options.Escape, wired to
// `go build -gcflags=-m` by cmd/fslint), the analyzer cross-checks its
// syntactic verdict against the compiler's escape analysis so the two
// mechanisms audit each other: compiler-reported escapes inside verified
// functions that the walk missed are reported as extra findings, and
// syntactic findings for constructs the compiler proves non-escaping
// (stack-allocated composite literals, non-escaping closures and boxing)
// are dropped as false alarms.
package allocfree

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"fscache/internal/lint/analysis"
)

// Doc is the analyzer description.
const Doc = "check that //fs:allocfree functions and their static callees never allocate"

// EscapeFunc produces the compiler's escape-analysis diagnostics for the
// single package rooted at dir (GoBuildEscape runs `go build -gcflags=-m .`
// there). nil disables the audit.
type EscapeFunc func(dir string) ([]byte, error)

// Options configures the analyzer.
type Options struct {
	// Escape, if non-nil, supplies escape-analysis output for the
	// cross-check. Units without an on-disk directory (analysistest)
	// and test units are never audited.
	Escape EscapeFunc
}

// New returns the allocfree analyzer.
func New(opts Options) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "allocfree",
		Doc:  Doc,
		RunModule: func(mp *analysis.ModulePass) error {
			return run(mp, opts)
		},
	}
}

// GoBuildEscape is the production EscapeFunc: it compiles the package in
// dir with -gcflags=-m and returns the compiler's diagnostics. The build
// cache replays a cached compilation's stderr, so repeated lint runs cost
// one cache probe, not one compile.
func GoBuildEscape(dir string) ([]byte, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, stderr.String())
	}
	return stderr.Bytes(), nil
}

// finding is one potential diagnostic, kept until the escape audit has
// had a chance to veto or extend the set.
type finding struct {
	pos token.Pos
	msg string
	// downgradeable marks syntactic verdicts about constructs that
	// allocate only if they escape (composite literals, closures,
	// boxing, make/new): the compiler's "does not escape" proof clears
	// them.
	downgradeable bool
}

func run(mp *analysis.ModulePass, opts Options) error {
	roots := make([]string, 0, len(mp.Annotations.AllocFree))
	for name := range mp.Annotations.AllocFree {
		if mp.CallGraph.Funcs[name] != nil {
			roots = append(roots, name)
		}
	}
	sort.Strings(roots)

	// Breadth-first walk from every annotated root over static calls.
	// visited maps each reached function to the first root that reached
	// it, for diagnostics.
	visited := map[string]string{}
	var queue []*scanJob
	for _, r := range roots {
		if _, ok := visited[r]; ok {
			continue
		}
		visited[r] = r
		queue = append(queue, &scanJob{node: mp.CallGraph.Funcs[r], root: r})
	}

	var findings []finding
	for len(queue) > 0 {
		job := queue[0]
		queue = queue[1:]
		s := &scanner{mp: mp, node: job.node, root: job.root}
		s.scan()
		findings = append(findings, s.findings...)
		for _, callee := range s.callees {
			if _, ok := visited[callee.Name]; ok {
				continue
			}
			visited[callee.Name] = job.root
			queue = append(queue, &scanJob{node: callee, root: job.root})
		}
	}

	if opts.Escape != nil {
		var err error
		findings, err = escapeAudit(mp, opts, visited, findings)
		if err != nil {
			return err
		}
	}

	for _, f := range findings {
		mp.Report(analysis.Diagnostic{Pos: f.pos, Message: f.msg})
	}
	return nil
}

type scanJob struct {
	node *analysis.FuncNode
	root string
}

// scanner checks one function body.
type scanner struct {
	mp   *analysis.ModulePass
	node *analysis.FuncNode
	root string

	// owned are locals proven to alias caller-owned or receiver-owned
	// memory, so append on them honors the scratch-buffer contract.
	owned map[types.Object]bool
	// localFns are func-literal-bound locals only ever used in call
	// position: statically resolvable, their bodies are scanned in
	// place and the closure value never leaves the frame.
	localFns map[types.Object]bool
	// parents maps each node in the declaration to its parent.
	parents map[ast.Node]ast.Node

	findings []finding
	callees  []*analysis.FuncNode
}

func (s *scanner) info() *types.Info { return s.node.Unit.Info }

func (s *scanner) reportf(pos token.Pos, downgradeable bool, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	short := analysis.ShortName(s.node.Name)
	if s.node.Name == s.root {
		msg = fmt.Sprintf("%s in //fs:allocfree function %s", msg, short)
	} else {
		msg = fmt.Sprintf("%s in %s, reached from //fs:allocfree %s", msg, short, analysis.ShortName(s.root))
	}
	s.findings = append(s.findings, finding{pos: pos, msg: msg, downgradeable: downgradeable})
}

func (s *scanner) scan() {
	s.computeParents()
	s.computeOwned()
	s.computeLocalFns()
	decl := s.node.Decl
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return s.checkCall(n)
		case *ast.AssignStmt:
			s.checkAssign(n)
		case *ast.ValueSpec:
			s.checkValueSpec(n)
		case *ast.ReturnStmt:
			s.checkReturn(n)
		case *ast.BinaryExpr:
			s.checkBinary(n)
		case *ast.CompositeLit:
			s.checkCompositeLit(n)
		case *ast.FuncLit:
			s.checkFuncLit(n)
		case *ast.SelectorExpr:
			s.checkMethodValue(n)
		case *ast.GoStmt:
			s.reportf(n.Pos(), false, "go statement allocates")
		}
		return true
	})
}

// ---- context precomputation ----

func (s *scanner) computeParents() {
	s.parents = map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(s.node.Decl, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			s.parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

// computeOwned seeds the caller-owned set with the receiver and
// parameters and propagates it through assignments to a fixpoint, so
// `buf := c.scratch[:0]; buf = append(buf, x)` is recognized as reuse of
// receiver-owned memory.
func (s *scanner) computeOwned() {
	s.owned = map[types.Object]bool{}
	decl := s.node.Decl
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := s.info().Defs[name]; obj != nil {
					s.owned[obj] = true
				}
			}
		}
	}
	seed(decl.Recv)
	seed(decl.Type.Params)
	seed(decl.Type.Results)

	for changed := true; changed; {
		changed = false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := s.info().Defs[id]
					if obj == nil {
						obj = s.info().Uses[id]
					}
					if obj == nil || s.owned[obj] {
						continue
					}
					if s.ownedExpr(n.Rhs[i]) {
						s.owned[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, name := range n.Names {
					obj := s.info().Defs[name]
					if obj == nil || s.owned[obj] {
						continue
					}
					if s.ownedExpr(n.Values[i]) {
						s.owned[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

// ownedExpr reports whether e denotes caller- or receiver-owned memory:
// a chain of selections, indexing and slicing rooted at a parameter, the
// receiver, an owned local, or a fresh make (reported separately).
func (s *scanner) ownedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := s.info().Uses[e]
		if obj == nil {
			obj = s.info().Defs[e]
		}
		return obj != nil && s.owned[obj]
	case *ast.SelectorExpr:
		return s.ownedExpr(e.X)
	case *ast.SliceExpr:
		return s.ownedExpr(e.X)
	case *ast.IndexExpr:
		return s.ownedExpr(e.X)
	case *ast.StarExpr:
		return s.ownedExpr(e.X)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := s.info().Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					return len(e.Args) > 0 && s.ownedExpr(e.Args[0])
				case "make":
					// The make itself is flagged; treating its
					// result as owned avoids double-reporting
					// every subsequent append.
					return true
				}
			}
		}
	}
	return false
}

// computeLocalFns finds `f := func(...) {...}` locals used only in call
// position and never reassigned: calls through them resolve statically
// and the closure never leaves the frame.
func (s *scanner) computeLocalFns() {
	s.localFns = map[types.Object]bool{}
	bound := map[types.Object]int{}
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if _, isLit := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); !isLit {
					continue
				}
				if obj := s.info().Defs[id]; obj != nil && as.Tok == token.DEFINE {
					bound[obj]++
				} else if obj := s.info().Uses[id]; obj != nil {
					bound[obj] += 2 // reassignment: disqualify
				}
			}
		}
		return true
	})
	for obj, n := range bound {
		if n == 1 && s.onlyCalled(obj) {
			s.localFns[obj] = true
		}
	}
}

// onlyCalled reports whether every use of obj is as the function of a
// call.
func (s *scanner) onlyCalled(obj types.Object) bool {
	ok := true
	ast.Inspect(s.node.Decl.Body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || s.info().Uses[id] != obj {
			return true
		}
		parent := s.parents[id]
		if call, isCall := parent.(*ast.CallExpr); !isCall || ast.Unparen(call.Fun) != ast.Expr(id) {
			ok = false
		}
		return true
	})
	return ok
}

// ---- construct checks ----

// coldName matches the convention for cold guard helpers: any function
// whose name mentions panic is out of contract.
func coldName(name string) bool {
	return strings.Contains(strings.ToLower(name), "panic")
}

// fmtFormatters are the calls an inline panic argument may not make.
var fmtFormatters = map[string]bool{
	"fmt.Sprintf":  true,
	"fmt.Sprint":   true,
	"fmt.Sprintln": true,
	"fmt.Errorf":   true,
}

// checkPanicArg reports each fmt formatting call inside arg.
func (s *scanner) checkPanicArg(arg ast.Expr) {
	ast.Inspect(arg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := s.info().Uses[sel.Sel].(*types.Func); ok && fmtFormatters[fn.FullName()] {
			s.reportf(call.Pos(), false, "inline %s inside panic() allocates; move the formatting into a cold *panic* helper", fn.FullName())
			return false
		}
		return true
	})
}

// checkCall classifies one call. Returning false prunes the walk into the
// call's arguments (cold panic paths).
func (s *scanner) checkCall(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)

	// Direct call of a literal: the body is scanned by the main walk.
	if _, ok := fun.(*ast.FuncLit); ok {
		return true
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := s.info().Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 && !s.ownedExpr(call.Args[0]) {
					s.reportf(call.Pos(), false, "append may grow a buffer this function does not own")
				}
			case "make":
				s.reportf(call.Pos(), true, "make allocates")
			case "new":
				s.reportf(call.Pos(), true, "new allocates")
			case "panic":
				if len(call.Args) == 1 {
					s.checkPanicArg(call.Args[0])
				}
				return false // cold path: no other check of the arguments
			}
			return true
		}
	}

	// unsafe's builtins (Sizeof, Add, Slice, ...) compute; none allocates.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if _, ok := s.info().Uses[sel.Sel].(*types.Builtin); ok {
			return true
		}
	}

	// Conversions.
	if tv, ok := s.info().Types[call.Fun]; ok && tv.IsType() {
		s.checkConversion(call, tv.Type)
		return true
	}

	// Calls through local func-literal variables resolve in place.
	if id, ok := fun.(*ast.Ident); ok {
		if obj, isVar := s.info().Uses[id].(*types.Var); isVar {
			if !s.localFns[obj] {
				s.reportf(call.Pos(), false, "call through func value %s cannot be verified as allocation-free", id.Name)
			}
			return true
		}
	}

	callee := s.mp.CallGraph.ResolveCall(s.node.Unit, call)
	cold := false
	switch callee.Kind {
	case analysis.CallStatic:
		switch {
		case callee.Fn != nil && coldName(callee.Fn.Name()):
			cold = true // cold guard helper (panicf and friends)
		case callee.Node != nil:
			s.callees = append(s.callees, callee.Node)
		case callee.Fn != nil && callee.Fn.Pkg() != nil && safeExternal[callee.Fn.Pkg().Path()]:
			// Pure arithmetic package: never allocates.
		case safeExternalFuncs[callee.Name]:
			// Individually trusted runtime-backed primitive.
		default:
			s.reportf(call.Pos(), false, "call to %s cannot be verified as allocation-free (outside the loaded packages)", analysis.ShortName(callee.Name))
		}
	case analysis.CallIface:
		if _, ok := s.mp.Annotations.AllocFree[callee.Name]; !ok {
			s.reportf(call.Pos(), false, "call through interface method %s, which lacks //fs:allocfree", analysis.ShortName(callee.Name))
		}
	case analysis.CallField:
		if _, ok := s.mp.Annotations.AllocFreeFields[callee.Name]; !ok {
			s.reportf(call.Pos(), false, "call through func-typed field %s, which lacks //fs:allocfree", analysis.ShortName(callee.Name))
		}
	case analysis.CallDynamic:
		s.reportf(call.Pos(), false, "dynamic call cannot be verified as allocation-free")
	}
	if cold {
		return false
	}

	// Implicit boxing of arguments into interface parameters (including
	// fmt-style ...any variadics).
	if sig, ok := tvType(s.info(), call.Fun).(*types.Signature); ok && call.Ellipsis == token.NoPos {
		s.checkArgBoxing(call, sig)
	}
	return true
}

// safeExternal lists packages outside the module whose functions are
// trusted not to allocate: pure arithmetic only.
var safeExternal = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// safeExternalFuncs lists individual functions outside the module that are
// trusted not to allocate, keyed by types.Func full name. The sync mutex
// operations spin or park through runtime semaphores but never touch the
// heap, and the striped engine's //fs:allocfree access paths necessarily
// cross them — a whole-package trust of sync would be too broad (sync.Map,
// sync.Pool and friends do allocate).
var safeExternalFuncs = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    true,
	"(*sync.Mutex).TryLock":   true,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": true,
}

func tvType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type.Underlying()
	}
	return nil
}

func (s *scanner) checkArgBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			s.checkBoxing(arg, pt)
		}
	}
}

// checkBoxing reports arg if assigning it to target boxes a non-constant,
// non-pointer-shaped value into an interface.
func (s *scanner) checkBoxing(arg ast.Expr, target types.Type) {
	if !types.IsInterface(target.Underlying()) || concreteTypeSet(target) {
		return
	}
	tv, ok := s.info().Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	if _, param := tv.Type.(*types.TypeParam); !param && types.IsInterface(tv.Type.Underlying()) {
		return // already an interface; a type parameter's value may not be
	}
	if tv.Value != nil || tv.IsNil() {
		return // constants box into static descriptors
	}
	if pointerShaped(tv.Type) {
		return // direct interfaces: no allocation
	}
	s.reportf(arg.Pos(), true, "value of type %s is boxed into an interface", types.TypeString(tv.Type, shortQualifier))
}

func shortQualifier(p *types.Package) string { return p.Name() }

// concreteTypeSet reports whether t is a type parameter whose constraint is a
// union of non-interface types (uint8 | uint16, say): a value converted or
// assigned to it takes the type argument's own representation, not an
// interface's.
func concreteTypeSet(t types.Type) bool {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return false
	}
	iface := tp.Constraint().Underlying().(*types.Interface)
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		if u, ok := iface.EmbeddedType(i).(*types.Union); ok {
			for j := 0; j < u.Len(); j++ {
				if types.IsInterface(u.Term(j).Type()) {
					return false
				}
			}
			return true
		}
	}
	return false
}

// pointerShaped reports whether values of t fit an interface word
// without boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func (s *scanner) checkConversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	at := tvType(s.info(), arg)
	if at == nil {
		return
	}
	switch t := target.Underlying().(type) {
	case *types.Basic:
		if t.Info()&types.IsString == 0 {
			return
		}
		if tv := s.info().Types[arg]; tv.Value != nil {
			return // constant-folded
		}
		switch at := at.(type) {
		case *types.Slice:
			s.reportf(call.Pos(), true, "conversion from %s to string allocates", at.String())
		case *types.Basic:
			if at.Info()&types.IsInteger != 0 {
				s.reportf(call.Pos(), true, "conversion from %s to string allocates", at.String())
			}
		}
	case *types.Slice:
		if bt, ok := at.(*types.Basic); ok && bt.Info()&types.IsString != 0 {
			s.reportf(call.Pos(), true, "conversion from string to %s allocates", t.String())
		}
	case *types.Interface:
		s.checkBoxing(arg, target)
	}
}

func (s *scanner) checkAssign(n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN {
		if t := tvType(s.info(), n.Lhs[0]); t != nil {
			if bt, ok := t.(*types.Basic); ok && bt.Info()&types.IsString != 0 {
				s.reportf(n.Pos(), false, "string concatenation allocates")
			}
		}
		return
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		var lt types.Type
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := s.info().Defs[id]; obj != nil {
				lt = obj.Type()
			} else if obj := s.info().Uses[id]; obj != nil {
				lt = obj.Type()
			}
		} else if tv, ok := s.info().Types[lhs]; ok {
			lt = tv.Type
		}
		if lt != nil {
			s.checkBoxing(n.Rhs[i], lt)
		}
	}
}

func (s *scanner) checkValueSpec(n *ast.ValueSpec) {
	if n.Type == nil {
		return
	}
	tv, ok := s.info().Types[n.Type]
	if !ok {
		return
	}
	for _, v := range n.Values {
		s.checkBoxing(v, tv.Type)
	}
}

// checkReturn boxes returned concrete values into interface results.
func (s *scanner) checkReturn(n *ast.ReturnStmt) {
	sig := s.enclosingSignature(n)
	if sig == nil || sig.Results().Len() != len(n.Results) {
		return
	}
	for i, r := range n.Results {
		s.checkBoxing(r, sig.Results().At(i).Type())
	}
}

// enclosingSignature walks parents to the innermost func literal or the
// declaration itself.
func (s *scanner) enclosingSignature(n ast.Node) *types.Signature {
	for cur := s.parents[n]; cur != nil; cur = s.parents[cur] {
		switch f := cur.(type) {
		case *ast.FuncLit:
			if tv, ok := s.info().Types[f]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					return sig
				}
			}
			return nil
		case *ast.FuncDecl:
			if fn, ok := s.info().Defs[f.Name].(*types.Func); ok {
				return fn.Type().(*types.Signature)
			}
			return nil
		}
	}
	return nil
}

func (s *scanner) checkBinary(n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	tv, ok := s.info().Types[n]
	if !ok || tv.Value != nil {
		return // constant-folded concatenation is free
	}
	if bt, ok := tv.Type.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
		s.reportf(n.Pos(), false, "string concatenation allocates")
	}
}

func (s *scanner) checkCompositeLit(n *ast.CompositeLit) {
	tv, ok := s.info().Types[n]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		s.reportf(n.Pos(), true, "slice literal allocates")
	case *types.Map:
		s.reportf(n.Pos(), true, "map literal allocates")
	case *types.Struct, *types.Array:
		if parent, ok := s.parents[n].(*ast.UnaryExpr); ok && parent.Op == token.AND {
			s.reportf(parent.Pos(), true, "address-of composite literal allocates")
		}
	}
}

// checkFuncLit flags literals that both capture enclosing variables and
// leave the frame; everything else is a static closure or provably local.
func (s *scanner) checkFuncLit(lit *ast.FuncLit) {
	parent := s.parents[lit]
	if call, ok := parent.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(lit) {
		return // immediately invoked
	}
	if as, ok := parent.(*ast.AssignStmt); ok {
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) == ast.Expr(lit) && i < len(as.Lhs) {
				if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
					obj := s.info().Defs[id]
					if obj == nil {
						obj = s.info().Uses[id]
					}
					if obj != nil && s.localFns[obj] {
						return // call-only local binding
					}
				}
			}
		}
	}
	if capt := s.captures(lit); capt != "" {
		s.reportf(lit.Pos(), true, "closure capturing %s escapes", capt)
	}
}

// captures returns the name of one variable of the enclosing function
// captured by lit, or "".
func (s *scanner) captures(lit *ast.FuncLit) string {
	decl := s.node.Decl
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := s.info().Uses[id].(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos >= decl.Pos() && pos < lit.Pos() {
			name = obj.Name()
		}
		return true
	})
	return name
}

// checkMethodValue flags x.M used as a value (not called): binding the
// receiver allocates a closure.
func (s *scanner) checkMethodValue(sel *ast.SelectorExpr) {
	selection, ok := s.info().Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	if call, ok := s.parents[sel].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(sel) {
		return
	}
	s.reportf(sel.Pos(), true, "method value %s.%s allocates", exprString(sel.X), sel.Sel.Name)
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "..."
	}
}

// ---- escape-analysis audit ----

// escapeLineRE matches one compiler diagnostic with a position.
var escapeLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// escapeAudit cross-checks syntactic findings against the compiler's
// escape analysis for every audited package (lib units with an on-disk
// directory that contain verified functions).
func escapeAudit(mp *analysis.ModulePass, opts Options, visited map[string]string, findings []finding) ([]finding, error) {
	type lineKey struct {
		file string
		line int
	}

	// Line ranges of every verified function, per audited unit, and the
	// name positions of the generic ones: the compiler reports an escape in
	// an instantiation's wrapper (NewT[int], which calls the shaped body) at
	// the declaration's name, though the allocation is the body's and is
	// reported at its own line too.
	type span struct{ start, end int }
	type column struct {
		file      string
		line, col int
	}
	ranges := map[string][]span{} // file → spans
	wrappers := map[column]bool{}
	auditUnits := map[*analysis.Unit]bool{}
	for name := range visited {
		node := mp.CallGraph.Funcs[name]
		if node == nil || node.Unit.Dir == "" || node.Unit.Test {
			continue
		}
		auditUnits[node.Unit] = true
		start := mp.Fset.Position(node.Decl.Pos())
		end := mp.Fset.Position(node.Decl.End())
		ranges[start.Filename] = append(ranges[start.Filename], span{start.Line, end.Line})
		if sig := node.Fn.Type().(*types.Signature); sig.TypeParams() != nil || sig.RecvTypeParams() != nil {
			at := mp.Fset.Position(node.Decl.Name.Pos())
			wrappers[column{at.Filename, at.Line, at.Column}] = true
		}
	}
	inVerified := func(file string, line int) bool {
		for _, sp := range ranges[file] {
			if line >= sp.start && line <= sp.end {
				return true
			}
		}
		return false
	}

	// token.File index for translating compiler positions back to Pos.
	tokenFiles := map[string]*token.File{}
	for u := range auditUnits {
		for _, f := range u.AllASTs() {
			if tf := mp.Fset.File(f.Pos()); tf != nil {
				tokenFiles[tf.Name()] = tf
			}
		}
	}

	astFindings := map[lineKey]bool{}
	for _, f := range findings {
		pos := mp.Fset.Position(f.pos)
		astFindings[lineKey{pos.Filename, pos.Line}] = true
	}

	escapes := map[lineKey][]string{} // compiler-reported escapes
	noEscape := map[lineKey]bool{}    // compiler-proven non-escapes

	units := make([]*analysis.Unit, 0, len(auditUnits))
	for u := range auditUnits {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].PkgPath < units[j].PkgPath })

	for _, u := range units {
		out, err := opts.Escape(u.Dir)
		if err != nil {
			return nil, fmt.Errorf("escape audit of %s: %v", u.PkgPath, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			m := escapeLineRE.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			file := m[1]
			if !strings.HasPrefix(file, "/") {
				file = u.Dir + "/" + strings.TrimPrefix(file, "./")
			}
			ln, _ := strconv.Atoi(m[2])
			col, _ := strconv.Atoi(m[3])
			msg := m[4]
			key := lineKey{file, ln}
			switch {
			case strings.Contains(msg, "does not escape"):
				noEscape[key] = true
			case strings.Contains(msg, "escapes to heap"), strings.HasPrefix(msg, "moved to heap"):
				if strings.HasPrefix(msg, `"`) || strings.Contains(msg, ` "`) && strings.HasSuffix(msg, `" escapes to heap`) {
					continue // constant strings live in static data
				}
				if !inVerified(file, ln) || wrappers[column{file, ln, col}] {
					continue
				}
				escapes[key] = append(escapes[key], msg)
			}
		}
	}

	// Direction 1: compiler-seen escapes the walk missed become findings.
	keys := make([]lineKey, 0, len(escapes))
	for k := range escapes {
		if !astFindings[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		tf := tokenFiles[k.file]
		if tf == nil || k.line > tf.LineCount() {
			continue
		}
		findings = append(findings, finding{
			pos: tf.LineStart(k.line),
			msg: fmt.Sprintf("escape audit: compiler reports %q inside an //fs:allocfree path", escapes[k][0]),
		})
	}

	// Direction 2: syntactic verdicts the compiler refutes are dropped.
	kept := findings[:0]
	for _, f := range findings {
		pos := mp.Fset.Position(f.pos)
		k := lineKey{pos.Filename, pos.Line}
		if f.downgradeable && noEscape[k] && len(escapes[k]) == 0 {
			continue
		}
		kept = append(kept, f)
	}
	return kept, nil
}
