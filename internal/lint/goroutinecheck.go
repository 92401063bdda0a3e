package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// GoroutineCheck demands a provable join or shutdown path for every
// goroutine in non-test code, so the background workers the storage
// engine is growing cannot leak. Accepted disciplines, checked on the
// goroutine body (a function literal, or the body of a function
// declared in the same package):
//
//   - WaitGroup: the body calls wg.Done on every path out (deferred, or
//     on each branch before its return), and a matching wg.Add appears
//     before the go statement in the spawning function;
//   - stop channel: the body receives from or ranges over a channel
//     whose name signals shutdown (stop/done/quit/exit/shutdown/close/
//     ctx...), or ranges over any channel (a producer closing the
//     channel joins the consumer).
//
// Anything else — including goroutines whose target is declared outside
// the package — is reported; a deliberate process-lifetime goroutine is
// documented with //pqlint:allow goroutinecheck and a reason.
var GoroutineCheck = &Analyzer{
	Name: "goroutinecheck",
	Doc:  "every go statement needs a provable join (WaitGroup) or shutdown (stop channel) path",
	Run:  runGoroutineCheck,
}

var stopChanRe = regexp.MustCompile(`(?i)(stop|done|quit|exit|shut|close|closing|cancel|ctx)`)

func runGoroutineCheck(p *Pass) {
	info := p.Pkg.Info
	decls := packageFuncDecls(p)
	for _, f := range p.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(p, info, decls, g, enclosingFunc(stack))
			return true
		})
	}
}

func checkGoStmt(p *Pass, info *types.Info, decls map[types.Object]*ast.FuncDecl, g *ast.GoStmt, spawner ast.Node) {
	hint := "add wg.Add(1) before the go and defer wg.Done() inside, select on a stop channel, or //pqlint:allow goroutinecheck with a reason"
	body := goTargetBody(info, decls, g.Call)
	if body == nil {
		p.ReportHintf(g.Pos(), hint,
			"goroutine has no provable join or shutdown path (target is not declared in this package)")
		return
	}
	if wg, ok := waitGroupDiscipline(info, body); ok {
		if spawner == nil || !addBeforeGo(info, funcBody(spawner), wg, g.Pos()) {
			p.ReportHintf(g.Pos(), hint,
				"goroutine calls Done on a WaitGroup but no matching Add appears before the go statement")
		}
		return
	}
	if hasShutdownReceive(info, body) {
		return
	}
	p.ReportHintf(g.Pos(), hint, "goroutine has no provable join or shutdown path")
}

// goTargetBody resolves the body the goroutine will run: the literal's
// own, or the body of a same-package function declaration.
func goTargetBody(info *types.Info, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fd := decls[info.ObjectOf(fun)]; fd != nil {
			return fd.Body
		}
	case *ast.SelectorExpr:
		if fd := decls[info.ObjectOf(fun.Sel)]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

func packageFuncDecls(p *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.Pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// waitGroupDiscipline reports whether the goroutine body calls Done on
// its WaitGroup on every path out: the flow walk starts the body owing
// the Done, and no return (nor the fall off the end) may still owe it.
// A deferred Done, directly or inside a deferred closure, pays it on
// every path. Returns the Done receiver's key for matching against the
// spawner's Add.
func waitGroupDiscipline(info *types.Info, body *ast.BlockStmt) (heldKey, bool) {
	var wg heldKey
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			wg, found = waitGroupDoneCall(info, call)
		}
		return !found
	})
	if !found {
		return heldKey{}, false
	}
	entry := newFlowState()
	entry.owed[wg] = &debt{kind: debtDone}
	joined := true
	w := &flowWalker{info: info, hooks: flowHooks{ret: func(st *flowState, _ token.Pos, _ bool) {
		if st.owed[wg] != nil {
			joined = false
		}
	}}}
	w.walkFuncBody(body, entry)
	return wg, joined
}

// waitGroupDoneCall matches wg.Done() on a sync.WaitGroup and returns
// the receiver's key.
func waitGroupDoneCall(info *types.Info, call *ast.CallExpr) (heldKey, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || !waitGroupType(info.TypeOf(sel.X)) {
		return heldKey{}, false
	}
	return keyOf(info, sel.X)
}

// addBeforeGo reports whether the spawning function calls Add on a
// matching WaitGroup lexically before the go statement. Matching is by
// object identity (closure capture) or by field-path tail (the
// `go s.worker()` shape, where the spawner adds on s.wg and the worker
// Dones on its receiver's wg).
func addBeforeGo(info *types.Info, spawnBody *ast.BlockStmt, wg heldKey, goPos token.Pos) bool {
	if spawnBody == nil {
		return false
	}
	found := false
	ast.Inspect(spawnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" || !waitGroupType(info.TypeOf(sel.X)) {
			return true
		}
		if call.End() >= goPos {
			return true
		}
		key, ok := keyOf(info, sel.X)
		if !ok {
			return true
		}
		if key == wg || pathTail(key.path) == pathTail(wg.path) {
			found = true
		}
		return !found
	})
	return found
}

func pathTail(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[i+1:]
		}
	}
	return path
}

func waitGroupType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// hasShutdownReceive reports whether the body observes a shutdown
// signal: a receive from a stop-named channel (or ctx.Done()), or a
// range over any channel (closing it joins the consumer).
func hasShutdownReceive(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	chanType := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && chanType(n.X) && stopChanRe.MatchString(types.ExprString(n.X)) {
				found = true
			}
		case *ast.RangeStmt:
			if chanType(n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}
