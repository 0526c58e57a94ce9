// Package determinism implements the fslint analyzer that enforces the
// simulator's reproducibility contract.
//
// Every figure pipeline depends on bit-identical, seed-driven simulation:
// parallelFor documents that results are identical to sequential order, and
// internal/xrand exists precisely so math/rand never leaks in. In the
// packages that make up the simulator this analyzer forbids the four ways
// that contract silently breaks:
//
//   - importing math/rand or math/rand/v2 (use fscache/internal/xrand);
//   - reading the wall clock via time.Now / time.Since / time.Until
//     (seeds, not clocks, drive the simulation; CLIs may keep timing code
//     because package main is never a simulation package);
//   - starting a goroutine with a go statement. Goroutine interleaving is
//     scheduler-dependent, so concurrency in a simulation package is only
//     sound under an explicit protocol argument (disjoint state per worker,
//     order-independent merge — see experiments.parallelFor and the
//     stripe-ownership protocol in internal/shardcache). Every such site
//     must carry the argument in a //fslint:ignore determinism <why>
//     annotation; unannotated go statements are flagged;
//   - ranging over a map with an order-sensitive body. Map iteration order
//     is randomized per run, so a body may only perform operations whose
//     outcome is independent of visit order: writes keyed by the range key,
//     commutative integer accumulation, deletes of the ranged key, and
//     appends to a slice that is sorted later in the same function.
//     Anything else — floating-point accumulation, calls, early returns,
//     writes to outer state — is flagged; iterate over sorted keys instead.
//
// False positives can be suppressed with //fslint:ignore determinism <why>.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"fscache/internal/lint/analysis"
)

// defaultSimPackages lists the packages bound by the determinism contract:
// everything that executes during a seeded simulation.
var defaultSimPackages = []string{
	"fscache/internal/core",
	"fscache/internal/sim",
	"fscache/internal/futility",
	"fscache/internal/recency",
	"fscache/internal/baselines",
	"fscache/internal/cachearray",
	"fscache/internal/experiments",
	"fscache/internal/faultinject",
	"fscache/internal/oracle",
	"fscache/internal/difftest",
	"fscache/internal/shardcache",
	"fscache/internal/scenario",
	"fscache/internal/alloc",
}

// Analyzer enforces the contract over defaultSimPackages.
var Analyzer = New(defaultSimPackages)

// New returns a determinism analyzer scoped to the given import paths
// (tests use this to point the analyzer at testdata packages).
func New(simPackages []string) *analysis.Analyzer {
	paths := map[string]bool{}
	for _, p := range simPackages {
		paths[p] = true
	}
	return &analysis.Analyzer{
		Name: "determinism",
		Doc: "forbid math/rand, wall-clock reads and order-sensitive map iteration " +
			"in simulation packages (see the determinism contract in DESIGN.md)",
		Run: func(pass *analysis.Pass) error {
			pkg := pass.PkgPath
			if n := len(pkg); n > 5 && pkg[n-5:] == "_test" {
				pkg = pkg[:n-5]
			}
			if !paths[pkg] {
				return nil
			}
			return run(pass)
		},
	}
}

var bannedImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

var bannedTimeFuncs = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && bannedImports[path] {
				pass.Reportf(imp.Pos(),
					"non-deterministic import %q in simulation package; use fscache/internal/xrand", path)
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, sortCalls: sortCalls(pass, fd)}
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					c.checkTimeCall(n)
				case *ast.GoStmt:
					c.pass.Reportf(n.Pos(),
						"go statement in simulation package; goroutine interleaving is scheduler-dependent — "+
							"document the order-independence protocol with //fslint:ignore determinism <why>")
				case *ast.RangeStmt:
					c.checkRange(n)
				}
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// sortCalls records (slice object, position) for every sort.*/slices.*
	// call in the enclosing function, to validate append-then-sort bodies.
	sortCalls []sortCall
}

type sortCall struct {
	obj types.Object
	pos token.Pos
}

func sortCalls(pass *analysis.Pass, fd *ast.FuncDecl) []sortCall {
	var calls []sortCall
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); !ok ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					calls = append(calls, sortCall{obj: obj, pos: call.Pos()})
				}
			}
		}
		return true
	})
	return calls
}

func (c *checker) sortedAfter(obj types.Object, pos token.Pos) bool {
	for _, s := range c.sortCalls {
		if s.obj == obj && s.pos > pos {
			return true
		}
	}
	return false
}

func (c *checker) checkTimeCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	if bannedTimeFuncs[fn.FullName()] {
		c.pass.Reportf(call.Pos(),
			"call to %s in simulation package; wall-clock reads break seed-driven reproducibility", fn.FullName())
	}
}

func (c *checker) checkRange(rs *ast.RangeStmt) {
	t := c.pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	rc := &rangeChecker{checker: c, rs: rs}
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
			rc.keyObj = obj
		} else if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			rc.keyObj = obj
		}
	}
	if node, reason := rc.blockOK(rs.Body); node != nil {
		c.pass.Reportf(rs.For,
			"map iteration order is random and the loop body is order-sensitive (%s); iterate over sorted keys instead", reason)
	}
}

type rangeChecker struct {
	*checker
	rs     *ast.RangeStmt
	keyObj types.Object
}

// local reports whether obj is declared inside the loop (including the
// range variables themselves, whose loop-local copies may be reassigned).
func (rc *rangeChecker) local(obj types.Object) bool {
	if obj == nil {
		return false
	}
	return obj.Pos() >= rc.rs.Pos() && obj.Pos() <= rc.rs.Body.End()
}

func (rc *rangeChecker) blockOK(b *ast.BlockStmt) (ast.Node, string) {
	for _, s := range b.List {
		if n, why := rc.stmtOK(s); n != nil {
			return n, why
		}
	}
	return nil, ""
}

// stmtOK returns the first order-sensitive construct in s, or nil if every
// effect of s is independent of map iteration order.
func (rc *rangeChecker) stmtOK(s ast.Stmt) (ast.Node, string) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return nil, ""
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			return s, "goto out of the loop body"
		}
		return nil, ""
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return s, "unexpected declaration"
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					if n, why := rc.exprOK(v); n != nil {
						return n, why
					}
				}
			}
		}
		return nil, ""
	case *ast.AssignStmt:
		return rc.assignOK(s)
	case *ast.IncDecStmt:
		return rc.exprOK(s.X)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && rc.isPerKeyDelete(call) {
			return nil, ""
		}
		return rc.exprOK(s.X)
	case *ast.IfStmt:
		if n, why := rc.stmtOK(s.Init); n != nil {
			return n, why
		}
		if n, why := rc.exprOK(s.Cond); n != nil {
			return n, why
		}
		if n, why := rc.blockOK(s.Body); n != nil {
			return n, why
		}
		return rc.stmtOK(s.Else)
	case *ast.BlockStmt:
		return rc.blockOK(s)
	case *ast.ForStmt:
		for _, sub := range []ast.Stmt{s.Init, s.Post} {
			if n, why := rc.stmtOK(sub); n != nil {
				return n, why
			}
		}
		if s.Cond != nil {
			if n, why := rc.exprOK(s.Cond); n != nil {
				return n, why
			}
		}
		return rc.blockOK(s.Body)
	case *ast.RangeStmt:
		if n, why := rc.exprOK(s.X); n != nil {
			return n, why
		}
		return rc.blockOK(s.Body)
	case *ast.SwitchStmt:
		if n, why := rc.stmtOK(s.Init); n != nil {
			return n, why
		}
		if s.Tag != nil {
			if n, why := rc.exprOK(s.Tag); n != nil {
				return n, why
			}
		}
		return rc.caseBodiesOK(s.Body)
	case *ast.TypeSwitchStmt:
		if n, why := rc.stmtOK(s.Init); n != nil {
			return n, why
		}
		return rc.caseBodiesOK(s.Body)
	case *ast.LabeledStmt:
		return rc.stmtOK(s.Stmt)
	case *ast.ReturnStmt:
		return s, "returns from inside the loop, so the result depends on visit order"
	default:
		// defer, go, send, select, ...
		return s, fmt.Sprintf("%T is not order-safe inside a map range", s)
	}
}

func (rc *rangeChecker) caseBodiesOK(body *ast.BlockStmt) (ast.Node, string) {
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if n, why := rc.exprOK(e); n != nil {
				return n, why
			}
		}
		for _, s := range cc.Body {
			if n, why := rc.stmtOK(s); n != nil {
				return n, why
			}
		}
	}
	return nil, ""
}

func (rc *rangeChecker) assignOK(s *ast.AssignStmt) (ast.Node, string) {
	// s = append(s, ...) on an outer slice: fine iff s is sorted after
	// the loop in the same function.
	if lhs, call := rc.asSelfAppend(s); lhs != nil {
		obj := rc.pass.TypesInfo.Uses[lhs]
		if obj == nil {
			obj = rc.pass.TypesInfo.Defs[lhs]
		}
		for _, arg := range call.Args[1:] {
			if n, why := rc.exprOK(arg); n != nil {
				return n, why
			}
		}
		if rc.local(obj) || rc.sortedAfter(obj, rc.rs.End()) {
			return nil, ""
		}
		return s, fmt.Sprintf("appends to %s without sorting it afterwards", lhs.Name)
	}

	for _, rhs := range s.Rhs {
		if n, why := rc.exprOK(rhs); n != nil {
			return n, why
		}
	}
	if s.Tok == token.DEFINE {
		return nil, ""
	}
	for _, lhs := range s.Lhs {
		if n, why := rc.lhsOK(lhs, s.Tok); n != nil {
			return n, why
		}
	}
	return nil, ""
}

// asSelfAppend matches `x = append(x, ...)` / `x := append(x, ...)`.
func (rc *rangeChecker) asSelfAppend(s *ast.AssignStmt) (*ast.Ident, *ast.CallExpr) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil, nil
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, nil
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	if b, ok := rc.pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, nil
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || arg0.Name != lhs.Name {
		return nil, nil
	}
	return lhs, call
}

func (rc *rangeChecker) lhsOK(lhs ast.Expr, tok token.Token) (ast.Node, string) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" || rc.local(rc.pass.TypesInfo.Uses[l]) || rc.local(rc.pass.TypesInfo.Defs[l]) {
			return nil, ""
		}
		if commutativeIntOp(tok, rc.pass.TypesInfo.TypeOf(lhs)) {
			return nil, ""
		}
		if isFloatAccum(tok, rc.pass.TypesInfo.TypeOf(lhs)) {
			return lhs, fmt.Sprintf("floating-point accumulation into %s depends on visit order", l.Name)
		}
		return lhs, fmt.Sprintf("assigns to %s declared outside the loop", l.Name)
	case *ast.IndexExpr:
		if n, why := rc.exprOK(l.X); n != nil {
			return n, why
		}
		if n, why := rc.exprOK(l.Index); n != nil {
			return n, why
		}
		// Writing m2[k] where k is the range key touches each entry at
		// most once per iteration, independent of order.
		if id, ok := l.Index.(*ast.Ident); ok && rc.keyObj != nil && rc.pass.TypesInfo.Uses[id] == rc.keyObj {
			if _, isMap := typeUnder(rc.pass.TypesInfo.TypeOf(l.X)).(*types.Map); isMap {
				return nil, ""
			}
		}
		if commutativeIntOp(tok, rc.pass.TypesInfo.TypeOf(lhs)) {
			return nil, ""
		}
		if isFloatAccum(tok, rc.pass.TypesInfo.TypeOf(lhs)) {
			return lhs, "floating-point accumulation depends on visit order"
		}
		return lhs, "writes through an index not derived from the range key"
	default:
		if commutativeIntOp(tok, rc.pass.TypesInfo.TypeOf(lhs)) {
			return nil, ""
		}
		return lhs, "writes to state outside the loop"
	}
}

// exprOK rejects expressions whose evaluation may have side effects: any
// call that is not a conversion or a pure builtin. Plain reads are fine.
func (rc *rangeChecker) exprOK(e ast.Expr) (ast.Node, string) {
	if e == nil {
		return nil, ""
	}
	var bad ast.Node
	var why string
	ast.Inspect(e, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure value is inert until called
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				bad, why = n, "channel receive inside the loop body"
				return false
			}
		case *ast.CallExpr:
			if rc.pureCall(n) {
				return true
			}
			bad, why = n, fmt.Sprintf("calls %s, whose effects may depend on visit order", types.ExprString(n.Fun))
			return false
		}
		return true
	})
	return bad, why
}

// pureCall accepts type conversions and side-effect-free builtins.
func (rc *rangeChecker) pureCall(call *ast.CallExpr) bool {
	if tv, ok := rc.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := rc.pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return false
	}
	switch b.Name() {
	case "len", "cap", "min", "max", "real", "imag", "complex":
		return true
	}
	return false
}

// isPerKeyDelete matches delete(m, k) with k the range key.
func (rc *rangeChecker) isPerKeyDelete(call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if b, ok := rc.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "delete" {
		return false
	}
	k, ok := call.Args[1].(*ast.Ident)
	return ok && rc.keyObj != nil && rc.pass.TypesInfo.Uses[k] == rc.keyObj
}

func commutativeIntOp(tok token.Token, t types.Type) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	b, ok := typeUnder(t).(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isFloatAccum(tok token.Token, t types.Type) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	b, ok := typeUnder(t).(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
