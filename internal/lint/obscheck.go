package lint

import (
	"go/ast"
	"go/types"
)

// ObsCheck enforces the observability contract of package obs: an
// instrumented type holds its preresolved metric handles (the `metrics`
// pattern) behind an atomic.Pointer, so attaching and detaching a
// collector is race-free, and that pointer is never nil — detaching
// stores a struct of nil no-op handles, which is what lets every use
// skip a nil guard. A direct field of metrics-struct-pointer type would
// let SetCollector race with readers; a Store(nil) into the pointer
// panics the next operation that records.
var ObsCheck = &Analyzer{
	Name: "obscheck",
	Doc:  "metric-handle structs must sit behind atomic.Pointer, which is never stored nil",
	Run:  runObsCheck,
}

func runObsCheck(p *Pass) {
	if p.Pkg.Within("internal/obs") {
		return
	}
	for _, f := range p.Pkg.Files {
		checkMetricsFields(p, f)
		checkMetricsNilStores(p, f)
	}
}

// checkMetricsFields flags plain struct fields whose type is a pointer to
// a metrics struct: the only sanctioned container is atomic.Pointer[T].
func checkMetricsFields(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			t := p.Pkg.Info.TypeOf(field.Type)
			if t == nil || !metricsStructPtr(t) {
				continue
			}
			p.ReportHintf(field.Pos(),
				"hold the handles behind atomic.Pointer[T] and resolve them with Load(), so SetCollector cannot race with readers",
				"metric-handle struct stored in a plain field of type %s", t.String())
		}
		return true
	})
}

// checkMetricsNilStores flags Store(nil) and Swap(nil) on an
// atomic.Pointer of a metrics struct: its readers use what they load
// without a nil guard.
func checkMetricsNilStores(p *Pass, f *ast.File) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || !info.Types[call.Args[0]].IsNil() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Store" && sel.Sel.Name != "Swap") {
			return true
		}
		// The method of an atomic.Pointer[T] takes a *T.
		m := info.Selections[sel]
		if m == nil || m.Obj().Pkg() == nil || m.Obj().Pkg().Path() != "sync/atomic" ||
			!metricsStructPtr(m.Type().(*types.Signature).Params().At(0).Type()) {
			return true
		}
		p.ReportHintf(call.Pos(),
			"store a struct of nil handles instead (resolving them from a nil *obs.Collector gives exactly that)",
			"nil stored into a metrics pointer; its readers use what they load without a nil guard")
		return true
	})
}
