package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// CallGraph indexes every function and method declared in the loaded
// units' reportable files, keyed by the types.Func full name. Nodes are
// string-keyed because library files are re-type-checked inside test
// units, so the same declaration can be reached through distinct
// types.Object identities; the full name is stable across units.
type CallGraph struct {
	Funcs map[string]*FuncNode
}

// FuncNode is one declared function with a body.
type FuncNode struct {
	// Name is the types.Func full name, e.g.
	// "(*fscache/internal/core.Cache).Access".
	Name string
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Unit is the unit whose reportable files hold the declaration; its
	// TypesInfo resolves every identifier in Decl.
	Unit *Unit
}

// NewCallGraph registers every declaration in the units' reportable file
// sets. Each source file is reportable in exactly one unit, so every
// declaration maps to exactly one node.
func NewCallGraph(units []*Unit) *CallGraph {
	g := &CallGraph{Funcs: map[string]*FuncNode{}}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := u.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				name := fn.FullName()
				if _, dup := g.Funcs[name]; !dup {
					g.Funcs[name] = &FuncNode{Name: name, Fn: fn, Decl: fd, Unit: u}
				}
			}
		}
	}
	return g
}

// CallKind classifies how a call site's target was resolved.
type CallKind int

const (
	// CallStatic is a direct call to a declared function or a method on
	// a concrete receiver: Callee.Name is the target's full name and
	// Callee.Node its declaration when it lives in the loaded units.
	CallStatic CallKind = iota
	// CallIface is a call through an interface method: Callee.Name is
	// the interface method's full name (the contract boundary).
	CallIface
	// CallField is a call through a func-typed struct field:
	// Callee.Name is the field key.
	CallField
	// CallDynamic is a call through a func value the resolver cannot
	// name (local variable, parameter, returned func, ...).
	CallDynamic
)

// Callee is the resolution of one call site.
type Callee struct {
	Kind CallKind
	// Name identifies the target per Kind; empty for CallDynamic.
	Name string
	// Node is the in-module declaration for CallStatic targets declared
	// in the loaded units, nil otherwise.
	Node *FuncNode
	// Fn is the resolved types.Func for CallStatic and CallIface.
	Fn *types.Func
}

// ResolveCall classifies a call expression's target using the unit that
// holds the enclosing function. Builtins, conversions and direct calls of
// function literals must be filtered by the caller first; ResolveCall
// treats them as CallDynamic.
func (g *CallGraph) ResolveCall(u *Unit, call *ast.CallExpr) Callee {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit generic instantiation f[T](...).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if _, isType := u.Info.Types[idx.Index]; isType && u.Info.Types[idx.Index].IsType() {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(idx.X)
	}

	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := u.Info.Uses[f].(*types.Func); ok {
			return g.static(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[f]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return Callee{Kind: CallIface, Name: fn.FullName(), Fn: fn}
				}
				return g.static(fn)
			case types.FieldVal:
				field := sel.Obj().(*types.Var)
				if _, ok := field.Type().Underlying().(*types.Signature); ok {
					if key, ok := FieldKeyOf(sel.Recv(), field); ok {
						return Callee{Kind: CallField, Name: key}
					}
				}
			}
			return Callee{Kind: CallDynamic}
		}
		// Package-qualified call pkg.F(...).
		if fn, ok := u.Info.Uses[f.Sel].(*types.Func); ok {
			return g.static(fn)
		}
	}
	return Callee{Kind: CallDynamic}
}

func (g *CallGraph) static(fn *types.Func) Callee {
	fn = fn.Origin() // a method of an instantiated type resolves to its declaration
	name := fn.FullName()
	return Callee{Kind: CallStatic, Name: name, Node: g.Funcs[name], Fn: fn}
}

// shortNameRE matches the directory part of an import path inside a full
// name (every "segment/" run).
var shortNameRE = regexp.MustCompile(`[\w.~-]+/`)

// ShortName compresses a full name for human-readable messages by
// dropping directory prefixes from package paths:
// "(*fscache/internal/core.Cache).Access" becomes "(*core.Cache).Access".
func ShortName(full string) string {
	return shortNameRE.ReplaceAllString(full, "")
}
