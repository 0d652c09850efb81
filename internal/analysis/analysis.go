// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// plus a package loader built on `go list -export` and the standard
// library's export-data importer.
//
// The repo vendors no third-party modules, so the real x/tools framework is
// not available offline; this package provides the same analyzer-authoring
// surface for the project-specific checkers under internal/analysis/... and
// the cmd/divlint driver. Analyzers written against it are pure functions of
// a type-checked package and can run in three harnesses: the pattern driver
// (divlint ./...), the `go vet -vettool` unitchecker protocol, and the
// fixture-based analysistest harness.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run reports findings through
// pass.Report / pass.Reportf and may return an arbitrary result (unused by
// the drivers here, kept for x/tools API parity).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (interface{}, error)
}

// Pass is the unit of work handed to an analyzer: one type-checked package,
// plus the whole-program view (call graph, fact cache) for flow-sensitive
// analyzers. Program is never nil; single-package drivers wrap the lone
// package in a one-element Program.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Program   *Program
	Report    func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if not found.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return p.TypesInfo.Uses[id]
}

// Diagnostic is one finding. Category is filled by the driver with the
// analyzer name.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Callee resolves the called function of a call expression, looking through
// parentheses. It returns nil for calls through function-typed variables,
// conversions, and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Named unwraps pointers and aliases down to a named type, or nil.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for {
		switch tt := t.(type) {
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Pointer:
			t = tt.Elem()
		default:
			return nil
		}
	}
}

// NewInfo returns a types.Info with every map populated, ready for Check.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
