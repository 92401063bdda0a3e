// Lock-flow engine shared by lockcheck and lockorder: parsing of the
// concurrency annotations (`// guarded by <mu>` on struct fields,
// `//pqlint:locked <expr>` entry assertions on functions, and the
// package-level `//pqlint:lockorder` manifests) plus a structured,
// defer-aware abstract interpretation of function bodies that tracks
// the set of held locks through branches, loops, switches and selects.
//
// The analysis is intraprocedural by design (the issue-#10 contract):
// a `//pqlint:locked` assertion is trusted at function entry and never
// re-proven at call sites. The walk merges branch states by
// intersection, so a lock is considered held only on paths where it
// provably is — false negatives are possible, silent false positives
// are not supposed to be (and are //pqlint:allow-able when they are).

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

// heldKey identifies a lock *instance* as precisely as the source lets
// us: the root object of the expression that was locked plus the
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
	key          heldKey
	class        lockClass
	rw           bool // the lock is an RWMutex
	write        bool // held exclusively (Lock, not RLock)
	acquiredHere bool // acquired in this function (vs asserted at entry)
	deferred     bool // a defer releases it on every outgoing path
	pos          token.Pos
}

// lockState is the set of locks held at a program point.
type lockState struct {
	held map[heldKey]*heldLock
}

func newLockState() *lockState { return &lockState{held: make(map[heldKey]*heldLock)} }

func (s *lockState) clone() *lockState {
	out := newLockState()
	for k, l := range s.held {
		cp := *l
		out.held[k] = &cp
	}
	return out
}

// intersect merges two branch exits: a lock survives only if held on
// both, exclusively only if exclusive on both, deferred-released only
// if deferred on both.
func (s *lockState) intersect(o *lockState) {
	for k, l := range s.held {
		ol, ok := o.held[k]
		if !ok {
			delete(s.held, k)
			continue
		}
		l.write = l.write && ol.write
		l.deferred = l.deferred && ol.deferred
		l.acquiredHere = l.acquiredHere || ol.acquiredHere
	}
}

func (s *lockState) list() []*heldLock {
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
func lockCall(info *types.Info, call *ast.CallExpr) (lockExpr ast.Expr, acquire, write, rw, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false, false, false
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
		return nil, false, false, false, false
	}
	rw, ok = mutexType(info.TypeOf(sel.X))
	if !ok {
		return nil, false, false, false, false
	}
	return sel.X, acquire, write, rw, true
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
	rw        bool // guard is an RWMutex
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
	rw    bool
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
			rw, ok := packageMutexField(p, alt.typeName, alt.field)
			if !ok {
				return nil, "guard " + part + " does not name a sync.Mutex/RWMutex field of a struct type in this package"
			}
			alt.rw = rw
		} else {
			alt.field = part
			rw, ok := siblingMutexField(p, st, part)
			if !ok {
				return nil, "guard " + part + " is not a sibling sync.Mutex/RWMutex field (use Type.field for a cross-struct guard)"
			}
			alt.rw = rw
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
	el.rw = rw
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

// entryState builds the initial lock state of a function from its
// assertions.
func entryState(ann *lockAnnotations, fd *ast.FuncDecl) *lockState {
	st := newLockState()
	for _, el := range ann.entry[fd] {
		cp := el
		st.held[el.key] = &heldLock{
			key: el.key, class: el.class, rw: el.rw, write: el.write, pos: cp.pos,
		}
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

// lockHooks are the analyzer callbacks of one function walk.
type lockHooks struct {
	// access fires for every struct-field selector, with the statically
	// known held set. write reports mutation context (assignment target,
	// ++/--, &x.f, delete/append first argument).
	access func(sel *ast.SelectorExpr, fld *types.Var, write bool, st *lockState)
	// acquire fires at every Lock/RLock with the locks held just before.
	acquire func(l *heldLock, prior []*heldLock)
	// ret fires at every return statement and at the fall-off-the-end
	// point of a non-terminating body.
	ret func(st *lockState, pos token.Pos)
}

type lockWalker struct {
	info  *types.Info
	hooks lockHooks
}

// walkFuncBody runs the abstract interpretation over one function body.
func (w *lockWalker) walkFuncBody(body *ast.BlockStmt, entry *lockState) {
	st := entry.clone()
	if !w.walkStmts(body.List, st) {
		if w.hooks.ret != nil {
			w.hooks.ret(st, body.Rbrace)
		}
	}
}

// walkStmts interprets a statement list, mutating st; the result
// reports whether every path through the list leaves the function or
// the enclosing loop (return, branch, or panic).
func (w *lockWalker) walkStmts(list []ast.Stmt, st *lockState) bool {
	for _, s := range list {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt, st *lockState) (terminated bool) {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.IfStmt:
		w.walkStmt(s.Init, st)
		w.scanExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := w.walkStmt(s.Body, thenSt)
		if s.Else != nil {
			elseSt := st.clone()
			elseTerm := w.walkStmt(s.Else, elseSt)
			switch {
			case thenTerm && elseTerm:
				return true
			case thenTerm:
				*st = *elseSt
			case elseTerm:
				*st = *thenSt
			default:
				thenSt.intersect(elseSt)
				*st = *thenSt
			}
			return false
		}
		if !thenTerm {
			st.intersect(thenSt)
		}
		return false
	case *ast.ForStmt:
		w.walkStmt(s.Init, st)
		w.scanExpr(s.Cond, st)
		bodySt := st.clone()
		if !w.walkStmt(s.Body, bodySt) {
			w.walkStmt(s.Post, bodySt)
			st.intersect(bodySt)
		}
		return false
	case *ast.RangeStmt:
		w.scanExpr(s.X, st)
		bodySt := st.clone()
		if !w.walkStmt(s.Body, bodySt) {
			st.intersect(bodySt)
		}
		return false
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, st)
		w.scanExpr(s.Tag, st)
		return w.walkClauses(s.Body, st, false)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, st)
		w.walkStmt(s.Assign, st)
		return w.walkClauses(s.Body, st, false)
	case *ast.SelectStmt:
		return w.walkClauses(s.Body, st, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, st)
		}
		if w.hooks.ret != nil {
			w.hooks.ret(st, s.Pos())
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the current construct; the path no
		// longer reaches the statements below, so it drops out of the
		// merge the same way a return does (returns on the far side of
		// the jump are checked where they occur).
		return true
	case *ast.DeferStmt:
		w.walkDefer(s, st)
		return false
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			w.scanExpr(arg, st)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkNestedFunc(lit, st)
		}
		return false
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.ExprStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.DeclStmt:
		w.scanExpr(s, st)
		return false
	}
	return false
}

// walkClauses interprets switch/select clause bodies from a shared
// entry state and merges the non-terminating exits. Without a default
// (or for select, always) the fall-past path keeps the entry state.
func (w *lockWalker) walkClauses(body *ast.BlockStmt, st *lockState, isSelect bool) bool {
	var exits []*lockState
	hasDefault := false
	allTerm := true
	for _, cl := range body.List {
		var stmts []ast.Stmt
		clSt := st.clone()
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
			merged.intersect(e)
		}
		if !covered {
			merged.intersect(st)
		}
		*st = *merged
	}
	return false
}

// walkDefer handles a defer statement: a deferred unlock (direct or
// inside a deferred closure) marks the lock released-on-exit; a
// deferred closure body is then interpreted as its own function.
func (w *lockWalker) walkDefer(s *ast.DeferStmt, st *lockState) {
	call := s.Call
	if lockExpr, acquire, _, _, ok := lockCall(w.info, call); ok {
		if !acquire {
			if key, keyOK := keyOf(w.info, lockExpr); keyOK {
				if l := st.held[key]; l != nil {
					l.deferred = true
				}
			}
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Unlocks of currently-held locks inside the deferred closure
		// release them on every outgoing path.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
				return false
			}
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lockExpr, acquire, _, _, ok := lockCall(w.info, c); ok && !acquire {
				if key, keyOK := keyOf(w.info, lockExpr); keyOK {
					if l := st.held[key]; l != nil {
						l.deferred = true
					}
				}
			}
			return true
		})
		w.walkNestedFunc(lit, st)
		return
	}
	// Arguments of a deferred call are evaluated now.
	for _, arg := range call.Args {
		w.scanExpr(arg, st)
	}
}

// walkNestedFunc interprets a function literal under a snapshot of the
// current state: closures invoked inline (sort comparators, ForEach
// callbacks) run under the caller's locks. Inherited locks are demoted
// to not-acquired-here so the literal's own return paths only answer
// for locks it acquired itself. (For `go` literals this inherits locks
// the goroutine will not actually hold — lenient, never a false
// positive.)
func (w *lockWalker) walkNestedFunc(lit *ast.FuncLit, st *lockState) {
	inner := st.clone()
	for _, l := range inner.held {
		l.acquiredHere = false
	}
	w.walkFuncBody(lit.Body, inner)
}

// keyOf is exprKey with the root/path pair packed into a heldKey.
func keyOf(info *types.Info, e ast.Expr) (heldKey, bool) {
	root, path, ok := exprKey(info, e)
	if !ok {
		return heldKey{}, false
	}
	return heldKey{root: root, path: path}, true
}

// scanExpr interprets one simple statement or expression in evaluation
// order: lock calls mutate the state, field selectors fire the access
// hook, nested function literals are interpreted under a state
// snapshot.
func (w *lockWalker) scanExpr(n ast.Node, st *lockState) {
	if n == nil {
		return
	}
	writes := make(map[ast.Node]bool)
	markWrites(n, writes)
	w.scanNode(n, st, writes)
}

func (w *lockWalker) scanNode(n ast.Node, st *lockState, writes map[ast.Node]bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			w.walkNestedFunc(c, st)
			return false
		case *ast.CallExpr:
			if lockExpr, acquire, write, rw, ok := lockCall(w.info, c); ok {
				w.applyLockCall(lockExpr, acquire, write, rw, c.Pos(), st)
				return false
			}
			return true
		case *ast.SelectorExpr:
			if fld := fieldVarOf(w.info, c); fld != nil && w.hooks.access != nil {
				w.hooks.access(c, fld, writes[c], st)
			}
			return true
		}
		return true
	})
}

func (w *lockWalker) applyLockCall(lockExpr ast.Expr, acquire, write, rw bool, pos token.Pos, st *lockState) {
	key, keyOK := keyOf(w.info, lockExpr)
	if acquire {
		l := &heldLock{
			class: classOf(w.info, lockExpr), rw: rw, write: write,
			acquiredHere: true, pos: pos,
		}
		if keyOK {
			l.key = key
		}
		if w.hooks.acquire != nil {
			w.hooks.acquire(l, st.list())
		}
		if keyOK {
			st.held[key] = l
		}
		return
	}
	if keyOK {
		delete(st.held, key)
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
