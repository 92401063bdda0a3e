// Flow engine shared by lockcheck, lockorder, spancheck and
// goroutinecheck: parsing of the concurrency annotations (`// guarded
// by <mu>` on struct fields, `//pqlint:locked <expr>` entry assertions
// on functions, and the package-level `//pqlint:lockorder` manifests)
// plus a structured, defer-aware abstract interpretation of function
// bodies through branches, loops, switches and selects. A `break`
// carries its path to the exit of its loop, switch or select, a
// `continue` to its loop's next iteration and a `fallthrough` to the
// entry of the next clause. A forward `goto` carries its path to its
// label, joined there with the path falling into the labeled statement.
// A backward one re-runs code already walked, which is not walked again:
// a release it owes that the label's entry did not owe is checked as if
// the function returned at the goto, and a lock the label's entry held
// that the goto does not (or holds only shared where the entry held it
// exclusively) is reported at the goto, since the code after the label
// was checked as holding it. A loop body is walked once, from the state
// entering the loop, and its back edge — the end of an iteration joined
// with its continues — follows the backward goto's rule against the
// body's entry. It tracks two facts per program point:
//
//   - held: the locks held on every path here. Branches merge by
//     intersection, so a guarded access is sanctioned only where the
//     lock provably is held.
//   - owed: the releases the function still owes on some path here — an
//     Unlock for each lock it acquired, a Finish for each span it started
//     and bound to a variable, the Done a goroutine body owes from entry.
//     Branches merge by union, so a release made in one branch only is
//     still owed after the merge. A direct release, a `defer` of one
//     (directly or inside a deferred closure), and a span returned or
//     re-bound pay the debt, and so does a path on which a condition
//     proves the span variable nil: `if sp != nil { sp.Finish() }` is
//     whole.
//
// The analysis is intraprocedural by design: a `//pqlint:locked`
// assertion is trusted at function entry and never re-proven at call
// sites. False negatives are possible, silent false positives are not
// supposed to be (and are //pqlint:allow-able when they are).

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ---------------------------------------------------------------------
// Lock identity
// ---------------------------------------------------------------------

// lockClass identifies a lock by its declaration site: the struct type
// that declares the mutex field, or just the variable name for a bare
// package-level / local mutex. Lock-order manifests rank classes.
type lockClass struct {
	typeName string // declaring struct type; "" for a bare mutex variable
	field    string // field or variable name
}

func (c lockClass) String() string {
	if c.typeName == "" {
		return c.field
	}
	return c.typeName + "." + c.field
}

// heldKey identifies a lock *instance* (or a span variable, or a
// WaitGroup) as precisely as the source lets us: the root object of the expression that was locked plus the
// rendered selector/index path below it. `f.shards[si].mu` and
// `s.mu` (with s := &f.shards[si]) are different keys — the engine
// tracks whichever spelling the code locks through, and guarded-field
// accesses must go through the same spelling to match.
type heldKey struct {
	root types.Object
	path string
}

// heldLock is one lock in the abstract state.
type heldLock struct {
	key   heldKey
	class lockClass
	write bool // held exclusively (Lock, not RLock)
	pos   token.Pos
}

// debtKind names the release a debt is paid by.
type debtKind int

const (
	debtUnlock debtKind = iota // Unlock/RUnlock of an acquired lock
	debtFinish                 // Finish/FinishWithDuration of a bound span
	debtDone                   // Done of a goroutine's WaitGroup
)

// debt is one release the function still owes, keyed in the state by
// what it releases: the lock instance, the span variable, the
// WaitGroup. Debts are never mutated, so states share them.
type debt struct {
	kind  debtKind
	class lockClass     // debtUnlock: the lock's class
	call  *ast.CallExpr // the Lock or span-starting call; nil for debtDone
}

// flowState is the abstract state at a program point.
type flowState struct {
	held map[heldKey]*heldLock // held on every path
	owed map[heldKey]*debt     // owed on some path
}

func newFlowState() *flowState {
	return &flowState{
		held: make(map[heldKey]*heldLock),
		owed: make(map[heldKey]*debt),
	}
}

func (s *flowState) clone() *flowState {
	out := newFlowState()
	for k, l := range s.held {
		cp := *l
		out.held[k] = &cp
	}
	for k, d := range s.owed {
		out.owed[k] = d
	}
	return out
}

// merge joins another branch's exit into s: a lock stays held only if
// held on both (exclusively only if exclusive on both), and a release is
// owed if either path still owes it.
func (s *flowState) merge(o *flowState) {
	for k, l := range s.held {
		ol, ok := o.held[k]
		if !ok {
			delete(s.held, k)
			continue
		}
		l.write = l.write && ol.write
	}
	for k, d := range o.owed {
		if s.owed[k] == nil {
			s.owed[k] = d
		}
	}
}

func (s *flowState) list() []*heldLock {
	out := make([]*heldLock, 0, len(s.held))
	for _, l := range s.held {
		out = append(out, l)
	}
	return out
}

// ---------------------------------------------------------------------
// Type and expression predicates
// ---------------------------------------------------------------------

// mutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex; rw distinguishes the two.
func mutexType(t types.Type) (rw, ok bool) {
	if t == nil {
		return false, false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false, false
	}
	switch obj.Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// lockCall matches `expr.Lock()`, `expr.RLock()`, `expr.Unlock()`,
// `expr.RUnlock()` on a sync.Mutex / sync.RWMutex and decomposes it.
func lockCall(info *types.Info, call *ast.CallExpr) (lockExpr ast.Expr, acquire, write, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		acquire, write = true, true
	case "RLock":
		acquire, write = true, false
	case "Unlock":
		acquire, write = false, true
	case "RUnlock":
		acquire, write = false, false
	default:
		return nil, false, false, false
	}
	if _, ok = mutexType(info.TypeOf(sel.X)); !ok {
		return nil, false, false, false
	}
	return sel.X, acquire, write, true
}

// exprKey renders an expression as a trackable (root object, path) key.
// Index expressions embed their printed index, so f.shards[si].mu keyed
// under one spelling matches accesses spelled identically. Call results
// and other dynamic bases are not keyable.
func exprKey(info *types.Info, e ast.Expr) (root types.Object, path string, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		root, p, ok := exprKey(info, e.X)
		if !ok {
			return nil, "", false
		}
		if p == "" {
			return root, e.Sel.Name, true
		}
		return root, p + "." + e.Sel.Name, true
	case *ast.IndexExpr:
		root, p, ok := exprKey(info, e.X)
		if !ok {
			return nil, "", false
		}
		return root, p + "[" + types.ExprString(e.Index) + "]", true
	case *ast.StarExpr:
		return exprKey(info, e.X)
	}
	return nil, "", false
}

// classOf resolves the lock class of a locked expression: the declaring
// struct's type name for a field, the bare name for a variable.
func classOf(info *types.Info, e ast.Expr) lockClass {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil {
			return lockClass{typeName: namedName(sel.Recv()), field: e.Sel.Name}
		}
		return lockClass{field: e.Sel.Name}
	case *ast.Ident:
		return lockClass{field: e.Name}
	case *ast.StarExpr:
		return classOf(info, e.X)
	case *ast.IndexExpr:
		return classOf(info, e.X)
	}
	return lockClass{}
}

// namedName returns the name of the named type behind t (derefing one
// pointer), or "".
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// fieldVarOf returns the struct field a selector expression reads or
// writes, or nil when the selector is not a field access.
func fieldVarOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// ---------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------

// guardAlt is one alternative of a `// guarded by` annotation. A field
// may list several guards separated by " or "; holding any one of them
// (write-held for writes when the guard is an RWMutex) sanctions the
// access. A `:w` suffix marks an exclusion-only alternative: only a
// write-hold sanctions any access through it, even a read — the shape
// of "the registry write lock excludes everyone" guards.
type guardAlt struct {
	typeName  string // "" = sibling field of the guarded field's struct
	field     string
	exclusive bool // ":w": only a write-hold counts, even for reads
}

func (a guardAlt) String() string {
	s := a.field
	if a.typeName != "" {
		s = a.typeName + "." + a.field
	}
	if a.exclusive {
		s += ":w"
	}
	return s
}

// entryLock is one `//pqlint:locked` assertion: the named lock is held
// at function entry (read-held with the `:r` suffix).
type entryLock struct {
	key   heldKey
	class lockClass
	write bool
	pos   token.Pos
}

// lockAnnotations is the package-wide annotation index the analyzers
// share. Collected once per (analyzer, package) pass; only lockcheck
// reports malformed guard/locked annotations and only lockorder reports
// malformed manifests, so a broken annotation is a single finding.
type lockAnnotations struct {
	guards map[*types.Var][]guardAlt
	entry  map[*ast.FuncDecl][]entryLock
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][\w.:]*(?:\s+or\s+[A-Za-z_][\w.:]*)*)`)

// collectLockAnnotations indexes the package's guard and entry
// annotations. When report is non-nil, malformed annotations are
// reported through it.
func collectLockAnnotations(p *Pass, report func(pos token.Pos, format string, args ...any)) *lockAnnotations {
	ann := &lockAnnotations{
		guards: make(map[*types.Var][]guardAlt),
		entry:  make(map[*ast.FuncDecl][]entryLock),
	}
	for _, f := range p.Pkg.Files {
		collectGuardComments(p, f, ann, report)
		collectEntryAssertions(p, f, ann, report)
	}
	return ann
}

// collectGuardComments finds `guarded by` annotations on struct fields.
func collectGuardComments(p *Pass, f *ast.File, ann *lockAnnotations, report func(token.Pos, string, ...any)) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			text := fieldCommentText(fld)
			m := guardedByRe.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			alts, err := parseGuardAlts(p, st, m[1])
			if err != "" {
				if report != nil {
					report(fld.Pos(), "bad `guarded by` annotation on %s: %s", fieldNames(fld), err)
				}
				continue
			}
			for _, name := range fld.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					ann.guards[v] = alts
				}
			}
		}
		return true
	})
}

func fieldNames(fld *ast.Field) string {
	names := make([]string, len(fld.Names))
	for i, n := range fld.Names {
		names[i] = n.Name
	}
	if len(names) == 0 {
		return "embedded field"
	}
	return strings.Join(names, ", ")
}

func fieldCommentText(fld *ast.Field) string {
	var b strings.Builder
	if fld.Doc != nil {
		b.WriteString(fld.Doc.Text())
		b.WriteByte(' ')
	}
	if fld.Comment != nil {
		b.WriteString(fld.Comment.Text())
	}
	// Collapse newlines so an annotation split across doc lines parses.
	return strings.Join(strings.Fields(b.String()), " ")
}

// parseGuardAlts parses "mu or Index.mu:w" into guard alternatives,
// validating each against the declaring struct (siblings) or the
// package scope (Type.field). Returns an error description or "".
func parseGuardAlts(p *Pass, st *ast.StructType, spec string) ([]guardAlt, string) {
	var alts []guardAlt
	for _, part := range strings.Split(spec, " or ") {
		part = strings.Trim(strings.TrimSpace(part), ".,;")
		if part == "" {
			continue
		}
		alt := guardAlt{}
		if rest, ok := strings.CutSuffix(part, ":w"); ok {
			alt.exclusive = true
			part = rest
		}
		if dot := strings.IndexByte(part, '.'); dot >= 0 {
			alt.typeName, alt.field = part[:dot], part[dot+1:]
			if _, ok := packageMutexField(p, alt.typeName, alt.field); !ok {
				return nil, "guard " + part + " does not name a sync.Mutex/RWMutex field of a struct type in this package"
			}
		} else {
			alt.field = part
			if _, ok := siblingMutexField(p, st, part); !ok {
				return nil, "guard " + part + " is not a sibling sync.Mutex/RWMutex field (use Type.field for a cross-struct guard)"
			}
		}
		alts = append(alts, alt)
	}
	if len(alts) == 0 {
		return nil, "no guard named"
	}
	return alts, ""
}

func siblingMutexField(p *Pass, st *ast.StructType, name string) (rw, ok bool) {
	for _, fld := range st.Fields.List {
		for _, n := range fld.Names {
			if n.Name == name {
				return mutexType(p.Pkg.Info.TypeOf(fld.Type))
			}
		}
	}
	return false, false
}

// packageMutexField resolves Type.field against the package scope.
func packageMutexField(p *Pass, typeName, field string) (rw, ok bool) {
	obj := p.Pkg.Types.Scope().Lookup(typeName)
	tn, isType := obj.(*types.TypeName)
	if !isType {
		return false, false
	}
	st, isStruct := tn.Type().Underlying().(*types.Struct)
	if !isStruct {
		return false, false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == field {
			return mutexType(st.Field(i).Type())
		}
	}
	return false, false
}

const lockedPrefix = "pqlint:locked"

// collectEntryAssertions finds `//pqlint:locked f.mu[:r]` comments in
// function doc comments and resolves them against the receiver and
// parameters.
func collectEntryAssertions(p *Pass, f *ast.File, ann *lockAnnotations, report func(token.Pos, string, ...any)) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			rest, ok := strings.CutPrefix(commentText(c.Text), lockedPrefix)
			if !ok {
				continue
			}
			for _, spec := range strings.Fields(rest) {
				el, err := resolveEntryLock(p, fd, strings.TrimSuffix(spec, ","), c.Pos())
				if err != "" {
					if report != nil {
						report(c.Pos(), "bad //pqlint:locked assertion %q: %s", spec, err)
					}
					continue
				}
				ann.entry[fd] = append(ann.entry[fd], el)
			}
		}
	}
}

// resolveEntryLock resolves "f.mu" / "f.cache.mu" / "f.mu:r" against
// the function's receiver and parameters, walking field types to the
// final mutex field.
func resolveEntryLock(p *Pass, fd *ast.FuncDecl, spec string, pos token.Pos) (entryLock, string) {
	el := entryLock{write: true, pos: pos}
	if rest, ok := strings.CutSuffix(spec, ":r"); ok {
		el.write = false
		spec = rest
	}
	parts := strings.Split(spec, ".")
	if len(parts) < 2 {
		return el, "want <receiver-or-param>.<path>.<mutex-field>"
	}
	root := lookupFuncVar(p, fd, parts[0])
	if root == nil {
		return el, parts[0] + " is not the receiver or a parameter of this function"
	}
	t := root.Type()
	ownerName := ""
	for _, field := range parts[1:] {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		ownerName = namedName(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return el, spec + " does not resolve to a struct field path"
		}
		var next types.Type
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == field {
				next = st.Field(i).Type()
				break
			}
		}
		if next == nil {
			return el, "no field " + field + " on " + ownerName
		}
		t = next
	}
	rw, ok := mutexType(t)
	if !ok {
		return el, spec + " is not a sync.Mutex/RWMutex field"
	}
	if !el.write && !rw {
		return el, "a plain sync.Mutex has no read mode; drop the :r suffix"
	}
	el.key = heldKey{root: root, path: strings.Join(parts[1:], ".")}
	el.class = lockClass{typeName: ownerName, field: parts[len(parts)-1]}
	return el, ""
}

// lookupFuncVar finds the receiver or parameter of fd with the given
// name.
func lookupFuncVar(p *Pass, fd *ast.FuncDecl, name string) types.Object {
	info := p.Pkg.Info
	check := func(fields *ast.FieldList) types.Object {
		if fields == nil {
			return nil
		}
		for _, fld := range fields.List {
			for _, id := range fld.Names {
				if id.Name == name {
					return info.Defs[id]
				}
			}
		}
		return nil
	}
	if obj := check(fd.Recv); obj != nil {
		return obj
	}
	return check(fd.Type.Params)
}

// entryState builds the initial state of a function from its lock
// assertions (none for a nil ann or fd). Asserted locks are held, not
// owed: the caller releases them.
func entryState(ann *lockAnnotations, fd *ast.FuncDecl) *flowState {
	st := newFlowState()
	if ann == nil {
		return st
	}
	for _, el := range ann.entry[fd] {
		st.held[el.key] = &heldLock{key: el.key, class: el.class, write: el.write, pos: el.pos}
	}
	return st
}

// ---------------------------------------------------------------------
// Fresh (not-yet-shared) objects: the init-path exemption
// ---------------------------------------------------------------------

// freshLocals collects local variables bound to freshly constructed
// values (composite literals, &composite, new(T)) anywhere in the
// function. A value no other goroutine can reach yet needs no locking,
// which is how constructors initialize guarded fields.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	isFreshRHS := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if e.Op != token.AND {
				return false
			}
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		case *ast.CallExpr:
			id, ok := ast.Unparen(e.Fun).(*ast.Ident)
			return ok && id.Name == "new" && info.ObjectOf(id) == types.Universe.Lookup("new")
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok || !isFreshRHS(n.Rhs[i]) {
					continue
				}
				if obj := info.ObjectOf(id); obj != nil {
					fresh[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if len(n.Values) == 0 {
					// var x T: zero value, fresh by construction.
					if obj := info.ObjectOf(id); obj != nil {
						fresh[obj] = true
					}
				} else if i < len(n.Values) && isFreshRHS(n.Values[i]) {
					if obj := info.ObjectOf(id); obj != nil {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

// ---------------------------------------------------------------------
// The structured walker
// ---------------------------------------------------------------------

// flowHooks are the analyzer callbacks of one function walk.
type flowHooks struct {
	// selector fires for every selector expression with the state just
	// before it. fld is the struct field it reads or writes (nil for a
	// method value or a qualified identifier); write reports mutation
	// context (assignment target, ++/--, &x.f, delete/append first
	// argument).
	selector func(sel *ast.SelectorExpr, fld *types.Var, write bool, st *flowState)
	// acquire fires at every Lock/RLock with the locks held just before.
	acquire func(l *heldLock, prior []*heldLock)
	// ret fires at every return statement, once its results are
	// evaluated, and at the closing brace of a body that can fall off
	// its end (end set).
	ret func(st *flowState, pos token.Pos, end bool)
	// reenter fires where a path re-runs code walked already — at a
	// backward goto, or at the end of a loop body — for each lock held at
	// that code's entry that the path does not hold as strongly: l as the
	// entry held it. label names the goto's label, "" for a loop.
	reenter func(l *heldLock, pos token.Pos, label string)
}

type flowWalker struct {
	info    *types.Info
	hooks   flowHooks
	targets []*jumpTarget // enclosing loops, switches and selects, innermost last
	label   string        // label of the construct about to be entered
	labels  labelStates   // the gotos and labels of the function being walked
}

// labelStates are the goto targets of one function body: the states the
// forward gotos carry to each label not walked yet, and the entry state of
// each label walked (nil when no path reached it).
type labelStates struct {
	gotos  map[string][]*flowState
	landed map[string]*flowState
}

// jumpTarget is a loop, switch or select that a break leaves (and, for a
// loop, that a continue repeats), with the states its jumps carry to it.
type jumpTarget struct {
	label  string
	loop   bool
	breaks []*flowState // at the breaks out of it: joined into its exit
	conts  []*flowState // at its continues: joined into the next iteration
	fall   *flowState   // at a fallthrough: joined into the next clause's entry
}

// walkFuncs runs a flow walk over every function body of the package:
// each declared function, seeded with its //pqlint:locked assertions
// when ann is non-nil, and each function literal of a package-level
// declaration. hooks builds the callbacks for one body; function
// literals nested in a body are walked as part of it.
func walkFuncs(p *Pass, ann *lockAnnotations, hooks func(body *ast.BlockStmt) flowHooks) {
	walk := func(fd *ast.FuncDecl, body *ast.BlockStmt) {
		w := &flowWalker{info: p.Pkg.Info, hooks: hooks(body)}
		w.walkFuncBody(body, entryState(ann, fd))
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					walk(d, d.Body)
				}
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						walk(nil, lit.Body)
						return false
					}
					return true
				})
			}
		}
	}
}

// walkFuncBody runs the abstract interpretation over one function body.
func (w *flowWalker) walkFuncBody(body *ast.BlockStmt, entry *flowState) {
	st := entry.clone()
	if !w.walkStmts(body.List, st) && w.hooks.ret != nil {
		w.hooks.ret(st, body.Rbrace, true)
	}
}

// walkStmts interprets a statement list, mutating st; the result
// reports whether no path reaches the end of the list: each returns,
// panics or jumps.
func (w *flowWalker) walkStmts(list []ast.Stmt, st *flowState) bool {
	term := false
	for _, s := range list {
		if l, ok := s.(*ast.LabeledStmt); ok {
			term = w.land(l.Label.Name, st, term)
		}
		if !term {
			term = w.walkStmt(s, st)
		}
	}
	return term
}

// land joins the states of the gotos waiting on label into st, the state
// falling into the labeled statement (none if term), records the result
// as the label's entry and reports whether still no path reaches it.
func (w *flowWalker) land(label string, st *flowState, term bool) bool {
	for _, g := range w.labels.gotos[label] {
		if term {
			*st = *g
			term = false
		} else {
			st.merge(g)
		}
	}
	delete(w.labels.gotos, label)
	if w.labels.landed == nil {
		w.labels.landed = make(map[string]*flowState)
	}
	w.labels.landed[label] = nil
	if !term {
		w.labels.landed[label] = st.clone()
	}
	return term
}

// gotoLabel carries the state at a forward goto to its label. A backward
// goto re-runs code walked already from the label's entry state (reenter).
func (w *flowWalker) gotoLabel(s *ast.BranchStmt, st *flowState) {
	name := s.Label.Name
	entry, back := w.labels.landed[name]
	if !back {
		if w.labels.gotos == nil {
			w.labels.gotos = make(map[string][]*flowState)
		}
		w.labels.gotos[name] = append(w.labels.gotos[name], st.clone())
		return
	}
	w.reenter(entry, st, s.Pos(), name)
}

// reenter checks a path at pos that re-runs code walked already from the
// state entry (nil when no path reached it): each release owed here that
// the entry did not owe is checked as if the function returned at pos,
// and each lock the entry held that is not held as strongly here is
// passed to the reenter hook with label.
func (w *flowWalker) reenter(entry, st *flowState, pos token.Pos, label string) {
	escaped := newFlowState()
	for k, d := range st.owed {
		if entry == nil || entry.owed[k] == nil {
			escaped.owed[k] = d
		}
	}
	if len(escaped.owed) > 0 && w.hooks.ret != nil {
		w.hooks.ret(escaped, pos, false)
	}
	if entry == nil || w.hooks.reenter == nil {
		return
	}
	for k, l := range entry.held {
		if h := st.held[k]; h == nil || l.write && !h.write {
			w.hooks.reenter(l, pos, label)
		}
	}
}

func (w *flowWalker) walkStmt(s ast.Stmt, st *flowState) (terminated bool) {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.IfStmt:
		w.walkStmt(s.Init, st)
		w.scanExpr(s.Cond, st)
		thenSt := st.clone()
		w.assume(s.Cond, true, thenSt)
		w.assume(s.Cond, false, st) // st continues as the else (or skip) path
		thenTerm := w.walkStmt(s.Body, thenSt)
		elseTerm := w.walkStmt(s.Else, st)
		switch {
		case thenTerm && elseTerm:
			return true
		case elseTerm:
			*st = *thenSt
		case !thenTerm:
			st.merge(thenSt)
		}
		return false
	case *ast.ForStmt:
		t := w.enter(true)
		w.walkStmt(s.Init, st)
		w.scanExpr(s.Cond, st)
		if next := w.walkLoopBody(t, s.Body, s.Post, st); next != nil && s.Cond != nil {
			st.merge(next)
		}
		// Without a condition only a break leaves the loop.
		return w.leave(t, st, s.Cond == nil)
	case *ast.RangeStmt:
		t := w.enter(true)
		w.scanExpr(s.X, st)
		if next := w.walkLoopBody(t, s.Body, nil, st); next != nil {
			st.merge(next)
		}
		return w.leave(t, st, false)
	case *ast.SwitchStmt:
		t := w.enter(false)
		w.walkStmt(s.Init, st)
		w.scanExpr(s.Tag, st)
		return w.leave(t, st, w.walkClauses(s.Body, st, false))
	case *ast.TypeSwitchStmt:
		t := w.enter(false)
		w.walkStmt(s.Init, st)
		w.walkStmt(s.Assign, st)
		return w.leave(t, st, w.walkClauses(s.Body, st, false))
	case *ast.SelectStmt:
		t := w.enter(false)
		return w.leave(t, st, w.walkClauses(s.Body, st, true))
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, st)
			// A returned span is the caller's to finish.
			ast.Inspect(r, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && spanPtr(w.info.TypeOf(id)) {
					delete(st.owed, heldKey{root: w.info.ObjectOf(id)})
				}
				return true
			})
		}
		if w.hooks.ret != nil {
			w.hooks.ret(st, s.Pos(), false)
		}
		return true
	case *ast.BranchStmt:
		w.jump(s, st)
		return true
	case *ast.DeferStmt:
		w.walkDefer(s.Call, st)
		return false
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, st)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkNestedFunc(lit, st)
		} else {
			w.scanExpr(s.Call.Fun, st)
		}
		return false
	case *ast.LabeledStmt:
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			w.label = s.Label.Name // claimed by the construct's jump target
		}
		return w.walkStmt(s.Stmt, st)
	case *ast.AssignStmt:
		w.scanExpr(s, st)
		w.bind(s.Lhs, s.Rhs, st)
		return false
	case *ast.DeclStmt:
		w.scanExpr(s, st)
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					w.bind(lhs, vs.Values, st)
				}
			}
		}
		return false
	case *ast.ExprStmt:
		w.scanExpr(s, st)
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		return ok && calleeName(call) == "panic"
	case *ast.IncDecStmt, *ast.SendStmt:
		w.scanExpr(s, st)
		return false
	}
	return false
}

// enter pushes the jump target of a loop, switch or select, claiming
// the label of an enclosing labeled statement.
func (w *flowWalker) enter(loop bool) *jumpTarget {
	t := &jumpTarget{label: w.label, loop: loop}
	w.label = ""
	w.targets = append(w.targets, t)
	return t
}

// leave pops t and joins its breaks into st, the state on the paths that
// fall out of the construct (none if term). It reports whether no path
// leaves the construct.
func (w *flowWalker) leave(t *jumpTarget, st *flowState, term bool) bool {
	w.targets = w.targets[:len(w.targets)-1]
	for _, b := range t.breaks {
		if term {
			*st = *b
			term = false
		} else {
			st.merge(b)
		}
	}
	return term
}

// walkLoopBody walks one iteration of a loop body from st and returns
// the state entering the next one: the body's end joined with its
// continues, then post, or nil when no path gets there. That state
// re-runs the body, walked from st, so it is checked against st as a
// backward goto is against its label's entry.
func (w *flowWalker) walkLoopBody(t *jumpTarget, body *ast.BlockStmt, post ast.Stmt, st *flowState) *flowState {
	bodySt := st.clone()
	if !w.walkStmt(body, bodySt) {
		t.conts = append(t.conts, bodySt)
	}
	if len(t.conts) == 0 {
		return nil
	}
	next := t.conts[0]
	for _, c := range t.conts[1:] {
		next.merge(c)
	}
	w.walkStmt(post, next)
	w.reenter(st, next, body.Rbrace, "")
	return next
}

// jump carries the state at a break to its construct's exit, at a
// continue to its loop's next iteration, at a fallthrough to the next
// clause of the innermost switch and at a goto to its label (gotoLabel).
func (w *flowWalker) jump(s *ast.BranchStmt, st *flowState) {
	switch s.Tok {
	case token.FALLTHROUGH:
		w.targets[len(w.targets)-1].fall = st.clone()
		return
	case token.GOTO:
		w.gotoLabel(s, st)
		return
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		switch {
		case s.Label != nil && s.Label.Name != t.label:
		case s.Tok == token.BREAK:
			t.breaks = append(t.breaks, st.clone())
			return
		case s.Tok == token.CONTINUE && t.loop:
			t.conts = append(t.conts, st.clone())
			return
		}
	}
}

// walkClauses interprets switch/select clause bodies from a shared
// entry state, joined with the state a fallthrough carries from the
// clause before, and merges the non-terminating exits. Without a default
// (or for select, always) the fall-past path keeps the entry state.
func (w *flowWalker) walkClauses(body *ast.BlockStmt, st *flowState, isSelect bool) bool {
	var exits []*flowState
	hasDefault := false
	allTerm := true
	t := w.targets[len(w.targets)-1]
	for _, cl := range body.List {
		var stmts []ast.Stmt
		clSt := st.clone()
		if t.fall != nil {
			clSt.merge(t.fall)
			t.fall = nil
		}
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				w.scanExpr(e, clSt)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			w.walkStmt(cl.Comm, clSt)
			stmts = cl.Body
		}
		if !w.walkStmts(stmts, clSt) {
			exits = append(exits, clSt)
			allTerm = false
		}
	}
	covered := hasDefault || (isSelect && len(body.List) > 0)
	if allTerm && covered {
		return true
	}
	if len(exits) > 0 {
		merged := exits[0]
		for _, e := range exits[1:] {
			merged.merge(e)
		}
		if !covered {
			merged.merge(st)
		}
		*st = *merged
	}
	return false
}

// walkDefer handles a deferred call: a deferred release (direct or
// inside a deferred closure) pays its debt on every outgoing path; a
// deferred closure body is then interpreted as its own function, and
// the operands of any other deferred call are evaluated now.
func (w *flowWalker) walkDefer(call *ast.CallExpr, st *flowState) {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		if key, ok := releaseKey(w.info, call); ok {
			delete(st.owed, key)
			return
		}
		w.scanExpr(call.Fun, st)
		for _, arg := range call.Args {
			w.scanExpr(arg, st)
		}
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if key, ok := releaseKey(w.info, n); ok {
				delete(st.owed, key)
			}
		}
		return true
	})
	w.walkNestedFunc(lit, st)
}

// walkNestedFunc interprets a function literal under a snapshot of the
// current state: closures invoked inline (sort comparators, ForEach
// callbacks) run under the caller's locks. The literal owes nothing at
// entry, so its own return paths only answer for what it acquires or
// starts itself. (For `go` literals this inherits locks the goroutine
// will not actually hold — lenient, never a false positive.)
func (w *flowWalker) walkNestedFunc(lit *ast.FuncLit, st *flowState) {
	inner := st.clone()
	inner.owed = make(map[heldKey]*debt)
	outer, labels := w.targets, w.labels // no jump leaves a function literal
	w.targets, w.labels = nil, labelStates{}
	w.walkFuncBody(lit.Body, inner)
	w.targets, w.labels = outer, labels
}

// bind records what an assignment (or var declaration) binds: a span
// start bound to a named variable incurs its Finish, and a span variable
// on the right-hand side is handed off.
func (w *flowWalker) bind(lhs, rhs []ast.Expr, st *flowState) {
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" || len(lhs) != len(rhs) {
			continue
		}
		if call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr); ok && spanPtr(w.info.TypeOf(call)) {
			st.owed[heldKey{root: w.info.ObjectOf(id)}] = &debt{kind: debtFinish, call: call}
		}
	}
	for _, r := range rhs {
		if id, ok := ast.Unparen(r).(*ast.Ident); ok && spanPtr(w.info.TypeOf(id)) {
			delete(st.owed, heldKey{root: w.info.ObjectOf(id)})
		}
	}
}

// assume records what cond evaluating to want proves: the `x == nil`
// conjuncts of a true condition and the `x != nil` disjuncts of a false
// one prove x nil, which pays the debt of a span variable holding no
// span.
func (w *flowWalker) assume(cond ast.Expr, want bool, st *flowState) {
	e, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch e.Op {
	case token.LAND, token.LOR:
		if want == (e.Op == token.LAND) {
			w.assume(e.X, want, st)
			w.assume(e.Y, want, st)
		}
	case token.EQL, token.NEQ:
		if obj := nilCompared(w.info, e); obj != nil && want == (e.Op == token.EQL) {
			delete(st.owed, heldKey{root: obj})
		}
	}
}

// nilCompared returns the variable of `x == nil`, `nil != x` and the
// like, or nil when bin compares no variable against nil.
func nilCompared(info *types.Info, bin *ast.BinaryExpr) types.Object {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.ObjectOf(id) == types.Universe.Lookup("nil")
	}
	x := bin.X
	switch {
	case isNil(bin.X):
		x = bin.Y
	case !isNil(bin.Y):
		return nil
	}
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		if v, ok := info.ObjectOf(id).(*types.Var); ok {
			return v
		}
	}
	return nil
}

// keyOf is exprKey with the root/path pair packed into a heldKey.
func keyOf(info *types.Info, e ast.Expr) (heldKey, bool) {
	root, path, ok := exprKey(info, e)
	if !ok {
		return heldKey{}, false
	}
	return heldKey{root: root, path: path}, true
}

// releaseKey matches a call that pays a debt — Unlock/RUnlock of a
// mutex, Finish/FinishWithDuration of a span, Done of a WaitGroup — and
// returns the key of what it releases.
func releaseKey(info *types.Info, call *ast.CallExpr) (heldKey, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldKey{}, false
	}
	t := info.TypeOf(sel.X)
	switch sel.Sel.Name {
	case "Unlock", "RUnlock":
		_, ok = mutexType(t)
	case "Finish", "FinishWithDuration":
		ok = spanPtr(t)
	case "Done":
		ok = waitGroupType(t)
	default:
		ok = false
	}
	if !ok {
		return heldKey{}, false
	}
	return keyOf(info, sel.X)
}

// scanExpr interprets one simple statement or expression in evaluation
// order: lock and release calls mutate the state, selectors fire the
// selector hook, nested function literals are interpreted under a state
// snapshot.
func (w *flowWalker) scanExpr(n ast.Node, st *flowState) {
	if n == nil {
		return
	}
	writes := make(map[ast.Node]bool)
	markWrites(n, writes)
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			w.walkNestedFunc(c, st)
			return false
		case *ast.CallExpr:
			lockExpr, acquire, write, isLock := lockCall(w.info, c)
			if isLock && acquire {
				w.acquire(c, lockExpr, write, st)
			}
			if key, ok := releaseKey(w.info, c); ok {
				delete(st.held, key)
				delete(st.owed, key)
			}
			return !isLock
		case *ast.SelectorExpr:
			if w.hooks.selector != nil {
				w.hooks.selector(c, fieldVarOf(w.info, c), writes[c], st)
			}
		}
		return true
	})
}

// acquire records a Lock/RLock: the lock is held and its Unlock owed.
func (w *flowWalker) acquire(call *ast.CallExpr, lockExpr ast.Expr, write bool, st *flowState) {
	l := &heldLock{class: classOf(w.info, lockExpr), write: write, pos: call.Pos()}
	key, keyOK := keyOf(w.info, lockExpr)
	if keyOK {
		l.key = key
	}
	if w.hooks.acquire != nil {
		w.hooks.acquire(l, st.list())
	}
	if keyOK {
		st.held[key] = l
		st.owed[key] = &debt{kind: debtUnlock, class: l.class, call: call}
	}
}

// markWrites records the expressions a statement mutates: assignment
// targets (descending through index and deref), ++/-- operands,
// address-taken operands, and the container arguments of delete, append
// and copy.
func markWrites(n ast.Node, marks map[ast.Node]bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range c.Lhs {
				markWriteTarget(lhs, marks)
			}
		case *ast.IncDecStmt:
			markWriteTarget(c.X, marks)
		case *ast.UnaryExpr:
			if c.Op == token.AND {
				markWriteTarget(c.X, marks)
			}
		case *ast.CallExpr:
			switch calleeName(c) {
			case "delete", "append", "copy":
				if len(c.Args) > 0 {
					markWriteTarget(c.Args[0], marks)
				}
			}
		}
		return true
	})
}

func markWriteTarget(e ast.Expr, marks map[ast.Node]bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		marks[e] = true
	case *ast.IndexExpr:
		markWriteTarget(e.X, marks)
	case *ast.StarExpr:
		markWriteTarget(e.X, marks)
	case *ast.SliceExpr:
		markWriteTarget(e.X, marks)
	}
}
