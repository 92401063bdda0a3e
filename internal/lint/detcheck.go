package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetCheck enforces the determinism contract of results and encodings:
// lookup/join results are byte-for-byte identical at any worker count and
// every persisted encoding is canonical, so iterating a Go map (whose
// order is deliberately randomized) may not feed a returned slice or an
// output stream unless the data is sorted on the way, and a top-k
// ranking drained from a heap must be sorted with the total, tie-broken
// comparator before it escapes (a binary heap orders only its root — the
// rest of the backing array is an arbitrary permutation that depends on
// insertion order). The three flagged shapes are
//
//   - `for k := range m { out = append(out, ...) }` where out is returned
//     and no sort call touches it afterwards,
//   - any write to an io.Writer-like destination from inside the body of
//     a range over a map, and
//   - a returned slice filled from a heap (copy from it, append of its
//     elements, or a direct alias of it) with no sort call afterwards.
//
// The canonical fix is the collect-sort-emit pattern; order-insensitive
// reductions (sums, map-to-map merges) are not flagged.
var DetCheck = &Analyzer{
	Name: "detcheck",
	Doc:  "map iteration and heap drains must not feed returned slices or output streams without a sort",
	Run:  runDetCheck,
}

// detScopes: the result-producing packages and every codec that persists
// bytes (the journal and snapshot writers live in internal/store).
var detScopes = []string{
	"internal/forest",
	"internal/profile",
	"internal/store",
	"internal/edit",
	"internal/jsonconv",
	"internal/xmlconv",
}

func runDetCheck(p *Pass) {
	inScope := false
	for _, s := range detScopes {
		inScope = inScope || p.Pkg.Within(s)
	}
	if !inScope {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncDeterminism(p, n.Body, n.Type)
				}
			case *ast.FuncLit:
				checkFuncDeterminism(p, n.Body, n.Type)
			}
			return true
		})
	}
}

// checkFuncDeterminism inspects one function body (closures are handled
// as their own functions and skipped here).
func checkFuncDeterminism(p *Pass, body *ast.BlockStmt, ftype *ast.FuncType) {
	info := p.Pkg.Info
	returned := returnedVars(info, body, ftype)
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.RangeStmt:
			t := info.TypeOf(n.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				checkMapRangeBody(p, body, n, returned)
				return
			}
			if isHeapExpr(n.X) {
				checkHeapRangeBody(p, body, n, returned)
			}
		case *ast.AssignStmt:
			checkHeapAssign(p, body, n, returned)
		case *ast.CallExpr:
			checkHeapCopy(p, body, n, returned)
		}
	})
}

// isHeapExpr reports whether the expression's text names a heap — the
// repo's convention for bounded top-k selection state (vpSearch.heap,
// container/heap calls). Text matching is deliberate: the invariant is
// about intent, and every partial-selection structure here says so in
// its name.
func isHeapExpr(x ast.Expr) bool {
	return strings.Contains(strings.ToLower(types.ExprString(ast.Unparen(x))), "heap")
}

const heapHint = "a binary heap orders only its root; sort the drained slice with the total, tie-broken comparator (SortMatches: ascending distance, ties by ID) before it escapes"

// checkHeapAssign flags `out = append(out, <heap element>)` and
// `out := <heap slice>` where out is returned and never sorted after: the
// heap's backing array is an arbitrary permutation past index 0, so a
// ranking built from it is nondeterministic until the final sort.
func checkHeapAssign(p *Pass, fnBody *ast.BlockStmt, n *ast.AssignStmt, returned map[types.Object]bool) {
	info := p.Pkg.Info
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		id, ok := n.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil || !returned[obj] {
			continue
		}
		src := ast.Unparen(rhs)
		heapFed := false
		switch src := src.(type) {
		case *ast.CallExpr:
			if calleeName(src) == "append" {
				for _, arg := range src.Args[1:] {
					heapFed = heapFed || isHeapExpr(arg)
				}
			}
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr:
			// Direct aliases of the heap (out := s.heap, out := s.heap[:k]).
			// Other expressions merely mentioning it — make() sized by
			// len(s.heap), arithmetic on it — are not drains.
			heapFed = isHeapExpr(src)
		}
		if !heapFed || sortedAfter(info, fnBody, n.End(), obj) {
			continue
		}
		p.ReportHintf(n.Pos(), heapHint,
			"top-k ranking %q drained from a heap without a following sort", id.Name)
	}
}

// checkHeapCopy flags `copy(out, <heap slice>)` where out is returned and
// never sorted after — the drain shape of lookupTopMetricLocked.
func checkHeapCopy(p *Pass, fnBody *ast.BlockStmt, call *ast.CallExpr, returned map[types.Object]bool) {
	info := p.Pkg.Info
	if calleeName(call) != "copy" || len(call.Args) != 2 || !isHeapExpr(call.Args[1]) {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj := info.ObjectOf(id)
	if obj == nil || !returned[obj] || sortedAfter(info, fnBody, call.End(), obj) {
		return
	}
	p.ReportHintf(call.Pos(), heapHint,
		"top-k ranking %q drained from a heap without a following sort", id.Name)
}

// checkHeapRangeBody flags appends to a returned slice from inside a
// range over a heap, unless the slice is sorted after the loop. Appends
// whose source is itself heap-shaped are left to checkHeapAssign.
func checkHeapRangeBody(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, returned map[types.Object]bool) {
	info := p.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || calleeName(call) != "append" || i >= len(asg.Lhs) {
				continue
			}
			srcIsHeap := false
			for _, arg := range call.Args[1:] {
				srcIsHeap = srcIsHeap || isHeapExpr(arg)
			}
			if srcIsHeap {
				continue
			}
			id, ok := asg.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil || !returned[obj] || sortedAfter(info, fnBody, rng.End(), obj) {
				continue
			}
			p.ReportHintf(asg.Pos(), heapHint,
				"top-k ranking %q drained from a heap without a following sort", id.Name)
		}
		return true
	})
}

// checkMapRangeBody flags nondeterministic appends and writes inside the
// body of one range-over-map.
func checkMapRangeBody(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, returned map[types.Object]bool) {
	info := p.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || calleeName(call) != "append" || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || !returned[obj] {
					continue
				}
				if sortedAfter(info, fnBody, rng.End(), obj) {
					continue
				}
				p.ReportHintf(n.Pos(),
					"map iteration order is randomized; sort the slice after the loop (or collect sorted keys first) so the returned result is deterministic",
					"append to returned slice %q inside range over map without a following sort", id.Name)
			}
		case *ast.CallExpr:
			if isOutputCall(info, n) {
				p.ReportHintf(n.Pos(),
					"collect the keys, sort them, then emit in sorted order — encodings written in map order differ from run to run",
					"output written inside range over map: %s", types.ExprString(n.Fun))
			}
		}
		return true
	})
}

// returnedVars collects the objects whose value escapes as a result:
// named results plus every plain identifier appearing in a return
// statement of this function (closures excluded).
func returnedVars(info *types.Info, body *ast.BlockStmt, ftype *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if obj := info.ObjectOf(name); obj != nil {
					out[obj] = true
				}
			}
		}
	}
	inspectShallow(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
	})
	return out
}

// sortedAfter reports whether, after the given position, the function
// calls something sort-shaped on obj: a call whose name contains "sort"
// (sort.Slice, sort.Strings, slices.SortFunc, forest.SortMatches, ...) taking
// the variable as an argument or receiver.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, after token.Pos, obj types.Object) bool {
	found := false
	inspectShallow(fnBody, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || found {
			return
		}
		// Match on the full callee text so both SortMatches(out) and
		// sort.Strings(out) / slices.SortFunc(out, ...) qualify.
		if !strings.Contains(strings.ToLower(types.ExprString(call.Fun)), "sort") {
			return
		}
		args := call.Args
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args[:len(args):len(args)], sel.X)
		}
		for _, arg := range args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
				return
			}
		}
	})
	return found
}

// writeLike method names on any receiver count as output.
var writeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteTo":     true,
}

// isOutputCall reports whether the call emits bytes to a destination
// whose content order matters: a Write*/Fprint*/Print*/Encode* call, or
// any call handed an argument with a Write([]byte) (int, error) method
// (io.Writer and friends, *bytes.Buffer, the codec helpers).
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	name := calleeName(call)
	if writeMethods[name] || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Encode") {
		return true
	}
	for _, arg := range call.Args {
		t := info.TypeOf(arg)
		if t != nil && hasWriteMethod(t) {
			return true
		}
	}
	return false
}

func hasWriteMethod(t types.Type) bool {
	if lookupWrite(t) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok && !types.IsInterface(t) {
		return lookupWrite(types.NewPointer(t))
	}
	return false
}

func lookupWrite(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Write")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	return sig.Params().Len() == 1 && sig.Results().Len() == 2
}

// inspectShallow walks the body like ast.Inspect but does not descend
// into nested function literals — they are analyzed as functions of
// their own.
func inspectShallow(body *ast.BlockStmt, fn func(n ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
