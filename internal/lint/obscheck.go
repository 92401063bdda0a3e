package lint

import (
	"go/ast"
	"go/types"
)

// ObsCheck enforces the observability contract established by the metrics
// layer: outside internal/obs, a struct of preresolved metric handles
// (the `metrics` pattern) must be reachable only through an
// atomic.Pointer — so attaching and detaching a collector is race-free —
// and every dereference of a possibly-nil metrics pointer must sit behind
// a nil guard, because the uninstrumented fast path hands out nil. A
// direct field of metrics-struct-pointer type would let SetCollector race
// with readers; an unguarded dereference panics the first unobserved
// operation.
var ObsCheck = &Analyzer{
	Name: "obscheck",
	Doc:  "metric-handle structs must sit behind atomic.Pointer and be nil-guarded at use",
	Run:  runObsCheck,
}

func runObsCheck(p *Pass) {
	if p.Pkg.Within("internal/obs") {
		return
	}
	for _, f := range p.Pkg.Files {
		checkMetricsFields(p, f)
	}
	info := p.Pkg.Info
	walkFuncs(p, nil, func(*ast.BlockStmt) flowHooks {
		return flowHooks{selector: func(sel *ast.SelectorExpr, _ *types.Var, _ bool, st *flowState) {
			// A dereference of a metrics pointer the walk has not proven
			// non-nil on every path here. Guards around a closure hold
			// inside it: metrics pointers are loaded once into locals.
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return
			}
			v, ok := info.ObjectOf(id).(*types.Var)
			if !ok || !metricsStructPtr(v.Type()) || st.nonNil[v] {
				return
			}
			p.ReportHintf(sel.Pos(),
				"metrics pointers are nil when no collector is attached; wrap the use in `if "+id.Name+" != nil { ... }` (or early-return on nil)",
				"possibly-nil metrics pointer %q dereferenced without a nil guard", id.Name)
		}}
	})
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
