package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SpanCheck enforces the tracing layer's ownership contract: whoever
// starts a span (obs.StartSpan, Collector.StartTrace, Tracer.Start,
// Span.Child — any call returning *obs.Span) must finish it. An
// unfinished span from a tracer is a trace that never publishes; an
// unfinished child never records its duration. A span-typed call result
// must be bound to a variable (not discarded), and the flow walk then
// holds every path out of the function — each return and the fall off
// the end — to a Finish/FinishWithDuration on that variable, a `defer`
// of one (directly or inside a deferred function literal), a nil check
// that proves no span was started, or returning the span itself
// (ownership transfer). Binding the span to another variable or a field
// transfers ownership out of the analyzer's sight and is not checked.
// False positives are silenced with //pqlint:allow spancheck.
var SpanCheck = &Analyzer{
	Name: "spancheck",
	Doc:  "every started span must be finished on all return paths (defer or per-branch)",
	Run:  runSpanCheck,
}

func runSpanCheck(p *Pass) {
	// The tracing layer itself constructs and hands out unfinished spans
	// by design.
	if p.Pkg.Within("internal/obs") {
		return
	}
	for _, f := range p.Pkg.Files {
		checkSpanBinding(p, f)
	}
	walkFuncs(p, nil, func(*ast.BlockStmt) flowHooks {
		return flowHooks{ret: func(st *flowState, pos token.Pos, end bool) {
			for key, d := range st.owed {
				if d.kind != debtFinish {
					continue
				}
				name := key.root.Name()
				hint := "call " + name + ".Finish() before returning, or defer it right after the span starts"
				if end {
					p.ReportHintf(d.call.Pos(), hint,
						"span %q started from %s() is never finished before the function falls off the end", name, calleeName(d.call))
				} else {
					p.ReportHintf(pos, hint,
						"span %q started from %s() is not finished on this return path", name, calleeName(d.call))
				}
			}
		}}
	})
}

// checkSpanBinding reports span-starting calls inside functions whose
// result is discarded or not bound to a single variable: the flow walk
// can only hold a named variable to its Finish.
func checkSpanBinding(p *Pass, f *ast.File) {
	info := p.Pkg.Info
	walkStack(f, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !spanPtr(info.TypeOf(call)) || enclosingFunc(stack) == nil {
			return true
		}
		// How is the result consumed? The direct parent decides.
		switch pn := stack[len(stack)-1].(type) {
		case *ast.AssignStmt:
			if singleAssignTarget(info, pn, call) == nil {
				p.ReportHintf(call.Pos(),
					"bind the span to its own variable so each return path can finish it",
					"span from %s() is not bound to a single variable; its Finish cannot be checked", calleeName(call))
			}
		case *ast.ExprStmt:
			p.ReportHintf(call.Pos(),
				"assign the result and call Finish on it (or defer it)",
				"result of %s() is discarded; the span is never finished", calleeName(call))
		}
		// Other consumers (call argument, return value, composite literal)
		// pass the span along; the receiver owns finishing it.
		return true
	})
}

// spanPtr reports whether t is *obs.Span.
func spanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Span" && obj.Pkg() != nil && pathWithin(obj.Pkg().Path(), "internal/obs")
}

// singleAssignTarget returns the variable object the call's result is
// bound to, when the assignment maps it to exactly one named variable
// (v := call(), v = call(), or the matching position of a parallel
// assignment); nil otherwise (blank, swapped, multi-value).
func singleAssignTarget(info *types.Info, as *ast.AssignStmt, call *ast.CallExpr) types.Object {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, rhs := range as.Rhs {
		if ast.Unparen(rhs) != call {
			continue
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		return info.ObjectOf(id)
	}
	return nil
}

// enclosingFunc returns the innermost function declaration or literal on
// the stack, or nil at file scope.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

func funcBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}
