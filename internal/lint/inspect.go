// Shared AST and type predicates for the analyzers: ancestor-stack
// traversal and recognition of the repo's metric-handle types.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// walkStack traverses the file, calling fn for every node with the stack
// of its ancestors (outermost first, n excluded). Returning false prunes
// the subtree below n.
func walkStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}

// calleeName returns the bare name of the function or method a call
// invokes, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// stmtLists yields the statement list a node carries, if any — blocks
// plus the bare lists of switch/select clauses.
func stmtLists(n ast.Node) [][]ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return [][]ast.Stmt{n.List}
	case *ast.CaseClause:
		return [][]ast.Stmt{n.Body}
	case *ast.CommClause:
		return [][]ast.Stmt{n.Body}
	}
	return nil
}

// obsHandle reports whether t is a pointer to one of internal/obs's
// metric handle types (*obs.Counter, *obs.Gauge, *obs.Histogram). The
// collector itself is not a handle: a bare *obs.Collector is nil-safe
// and safe for concurrent use, so holding one in a plain field is fine.
func obsHandle(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pathWithin(obj.Pkg().Path(), "internal/obs") {
		return false
	}
	switch obj.Name() {
	case "Counter", "Gauge", "Histogram":
		return true
	}
	return false
}

// metricsStructPtr reports whether t is a pointer to a struct holding at
// least one obs metric handle — the shape of the preresolved metrics
// structs the instrumented packages keep behind atomic.Pointer.
func metricsStructPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	st, ok := ptr.Elem().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if obsHandle(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// pathWithin reports whether the import path contains rel as a
// path-segment run (e.g. pathWithin("pqgram/internal/obs", "internal/obs")).
func pathWithin(path, rel string) bool {
	return strings.Contains("/"+path+"/", "/"+rel+"/")
}
