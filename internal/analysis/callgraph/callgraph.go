// Package callgraph builds a static call graph over a set of type-checked
// packages, dependency-free: nodes are declared functions, methods and
// function literals; edges are static call sites plus interface dispatch
// resolved against the method sets of the loaded concrete types.
//
// The graph errs toward over-approximation, which is the safe direction for
// reachability-based checks like the isolation analyzer:
//
//   - a call through an interface method adds an edge to every loaded
//     concrete method that could satisfy it (types.Implements);
//   - defining a function literal adds an edge from the enclosing function,
//     as if defining it called it — closures handed to callbacks (e.g. the
//     prefetch.Issuer handed to OnAccess) stay reachable even though the
//     eventual indirect call cannot be resolved statically;
//   - calls through plain function-typed variables resolve to nothing; the
//     literal-definition edge above is what keeps their usual targets in the
//     graph.
//
// Node order and edge order are deterministic (file order, then position),
// so breadth-first traversals and the diagnostics built on them are stable
// run to run.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Source is one package's worth of syntax and type information.
type Source struct {
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Node is one function in the graph: a declared function or method
// (Fn != nil) or a function literal (Lit != nil).
type Node struct {
	Fn   *types.Func
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	// Pkg and Info belong to the package the body was declared in.
	Pkg  *types.Package
	Info *types.Info
	// Out lists call targets in deterministic order, deduplicated.
	Out []*Node

	outSeen map[*Node]bool
}

// String names the node for diagnostics: the function's FullName, or the
// literal's position within its enclosing function.
func (n *Node) String() string {
	if n.Fn != nil {
		return n.Fn.FullName()
	}
	return fmt.Sprintf("func literal at %v", n.Lit.Pos())
}

// Name returns a human-oriented name; for literals, the enclosing position
// is resolved through fset when available.
func (n *Node) Name(fset *token.FileSet) string {
	if n.Fn != nil {
		return n.Fn.FullName()
	}
	if fset != nil {
		return fmt.Sprintf("func literal at %v", fset.Position(n.Lit.Pos()))
	}
	return n.String()
}

// Graph is the call graph over the loaded packages.
type Graph struct {
	// Nodes in deterministic order: packages in input order, then file
	// order, then position.
	Nodes []*Node

	byFunc map[*types.Func]*Node
}

// NodeOf returns the node for a declared function or method, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byFunc[fn]
}

// Build constructs the graph for the given sources.
func Build(srcs []Source) *Graph {
	g := &Graph{byFunc: map[*types.Func]*Node{}}

	// Pass 1: create nodes for every function declaration and literal.
	for _, src := range srcs {
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := src.Info.Defs[decl.Name].(*types.Func)
					if fn == nil {
						continue
					}
					n := &Node{Fn: fn, Body: decl.Body, Pkg: src.Pkg, Info: src.Info}
					g.Nodes = append(g.Nodes, n)
					g.byFunc[fn] = n
					g.addLits(n, decl.Body, src)
				case *ast.GenDecl:
					// Function literals in package-level var initializers
					// run at init time; give them standalone nodes so their
					// bodies are analyzable, with no caller edge (they are
					// only reachable if something loaded calls them).
					ast.Inspect(decl, func(nd ast.Node) bool {
						if lit, ok := nd.(*ast.FuncLit); ok {
							n := &Node{Lit: lit, Body: lit.Body, Pkg: src.Pkg, Info: src.Info}
							g.Nodes = append(g.Nodes, n)
							return false // inner literals belong to this one
						}
						return true
					})
				}
			}
		}
	}

	// Pass 2: add call edges. Interface dispatch needs the full node list,
	// so this cannot be fused with pass 1.
	for _, n := range g.Nodes {
		g.addCallEdges(n)
	}
	return g
}

// addLits creates nodes for function literals nested in body and records the
// defining-function edge.
func (g *Graph) addLits(encl *Node, body *ast.BlockStmt, src Source) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			g.litUnder(encl, lit, src)
			return false
		}
		return true
	})
}

// litUnder creates a node for lit with a defining edge from encl, recursing
// so literals nested inside lit hang off lit's node, not encl's.
func (g *Graph) litUnder(encl *Node, lit *ast.FuncLit, src Source) {
	ln := &Node{Lit: lit, Body: lit.Body, Pkg: src.Pkg, Info: src.Info}
	g.Nodes = append(g.Nodes, ln)
	encl.addEdge(ln)
	ast.Inspect(lit.Body, func(inner ast.Node) bool {
		if inner == lit.Body {
			return true
		}
		if il, ok := inner.(*ast.FuncLit); ok {
			g.litUnder(ln, il, src)
			return false
		}
		return true
	})
}

func (n *Node) addEdge(to *Node) {
	if n.outSeen == nil {
		n.outSeen = map[*Node]bool{}
	}
	if n.outSeen[to] {
		return
	}
	n.outSeen[to] = true
	n.Out = append(n.Out, to)
}

// addCallEdges scans the node's body for call sites. The body walk skips
// nested function literals — their calls belong to their own nodes.
func (g *Graph) addCallEdges(n *Node) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(nd ast.Node) bool {
		if lit, ok := nd.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(n.Info, call)
		if fn == nil {
			return true
		}
		if recv := recvType(fn); recv != nil && types.IsInterface(recv) {
			g.dispatch(n, fn, recv.Underlying().(*types.Interface))
			return true
		}
		if target := g.byFunc[fn]; target != nil {
			n.addEdge(target)
		}
		return true
	})
}

// dispatch resolves an interface method call to every loaded concrete method
// that could be its target, in deterministic (node) order.
func (g *Graph) dispatch(from *Node, ifaceMethod *types.Func, iface *types.Interface) {
	for _, cand := range g.Nodes {
		if cand.Fn == nil || cand.Fn.Name() != ifaceMethod.Name() {
			continue
		}
		rt := recvType(cand.Fn)
		if rt == nil {
			continue
		}
		if implementsEither(rt, iface) {
			from.addEdge(cand)
		}
	}
}

// implementsEither reports whether t or *t satisfies iface: a value-receiver
// method may be called through an interface holding either form.
func implementsEither(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// callee resolves the statically-named target of a call, looking through
// parentheses; nil for calls of function values, conversions and built-ins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Reachable runs breadth-first search from the entry nodes and returns the
// reachable set plus, for diagnostics, each reached node's BFS predecessor
// (entries map to nil). Traversal order is deterministic.
func (g *Graph) Reachable(entries []*Node) (reached map[*Node]bool, from map[*Node]*Node) {
	reached = map[*Node]bool{}
	from = map[*Node]*Node{}
	var queue []*Node
	for _, e := range entries {
		if e != nil && !reached[e] {
			reached[e] = true
			from[e] = nil
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, next := range n.Out {
			if !reached[next] {
				reached[next] = true
				from[next] = n
				queue = append(queue, next)
			}
		}
	}
	return reached, from
}

// PathFrom reconstructs the entry→node call chain recorded by Reachable.
func PathFrom(from map[*Node]*Node, n *Node) []*Node {
	var path []*Node
	for cur := n; cur != nil; cur = from[cur] {
		path = append(path, cur)
		if from[cur] == nil {
			break
		}
	}
	// Reverse into entry-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}
