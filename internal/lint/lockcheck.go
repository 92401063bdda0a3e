package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockCheck enforces the `// guarded by` contract: a struct field
// annotated with its guard may only be read while the guard is held and
// only be written while it is held exclusively, and every lock a
// function acquires must be released on all return paths (directly or
// by defer). The walk is intraprocedural and defer-aware; functions the
// caller locks for are annotated `//pqlint:locked <recv>.<path>` (add
// `:r` for a read-hold), which the analyzer trusts at entry.
//
// Guard grammar, written in the field's trailing or doc comment:
//
//	// guarded by mu                  sibling mutex field
//	// guarded by Index.mu            any held lock of that class
//	// guarded by mu or Index.mu:w    alternatives; :w = only a
//	//                                write-hold sanctions the access
//
// Fresh values (locals bound to composite literals or new) are exempt —
// that is the constructor init path, before the value is shared.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "guarded-by fields accessed only under their lock; every acquired lock released on all return paths",
	Run:  runLockCheck,
}

func runLockCheck(p *Pass) {
	ann := collectLockAnnotations(p, func(pos token.Pos, format string, args ...any) {
		p.ReportHintf(pos, "see the concurrency-annotations guide in the README", format, args...)
	})
	walkFuncs(p, ann, func(body *ast.BlockStmt) flowHooks {
		fresh := freshLocals(p.Pkg.Info, body)
		return flowHooks{
			selector: func(sel *ast.SelectorExpr, fld *types.Var, write bool, st *flowState) {
				checkGuardedAccess(p, ann, fresh, sel, fld, write, st)
			},
			ret: func(st *flowState, pos token.Pos, _ bool) {
				for _, d := range st.owed {
					if d.kind == debtUnlock {
						p.ReportHintf(pos,
							"defer the unlock right after acquiring, or release it before this return",
							"%s acquired at line %d is still held when the function returns here",
							d.class, p.Pkg.Fset.Position(d.call.Pos()).Line)
					}
				}
			},
		}
	})
}

// checkGuardedAccess verifies one field access against the field's
// guard alternatives and the held-lock set.
func checkGuardedAccess(p *Pass, ann *lockAnnotations, fresh map[types.Object]bool, sel *ast.SelectorExpr, fld *types.Var, write bool, st *flowState) {
	alts := ann.guards[fld]
	if len(alts) == 0 {
		return
	}
	root, basePath, keyOK := exprKey(p.Pkg.Info, sel.X)
	if keyOK && fresh[root] {
		return // init path: the value is not shared yet
	}
	insufficient := false
	for _, alt := range alts {
		if alt.typeName == "" {
			// Sibling guard: the lock at the access's own base must be
			// held — s.mu for s.postings, f.cache.mu for f.cache.byID.
			if !keyOK {
				continue
			}
			path := alt.field
			if basePath != "" {
				path = basePath + "." + alt.field
			}
			l := st.held[heldKey{root: root, path: path}]
			if l == nil {
				continue
			}
			if holdSuffices(l, alt, write) {
				return
			}
			insufficient = true
			continue
		}
		// Cross-struct guard: any held lock of the class counts.
		for _, l := range st.held {
			if l.class.typeName == alt.typeName && l.class.field == alt.field {
				if holdSuffices(l, alt, write) {
					return
				}
				insufficient = true
			}
		}
	}
	kind := "read"
	if write {
		kind = "write"
	}
	hint := "acquire the guard, annotate the function //pqlint:locked if the caller holds it, or //pqlint:allow lockcheck with a reason"
	if insufficient {
		p.ReportHintf(sel.Pos(), hint,
			"%s of %s while holding its guard (%s) read-only", kind, types.ExprString(sel), guardSpec(alts))
		return
	}
	p.ReportHintf(sel.Pos(), hint,
		"%s of %s without holding its guard (%s)", kind, types.ExprString(sel), guardSpec(alts))
}

// holdSuffices reports whether the held lock sanctions the access under
// the given guard alternative: writes need an exclusive hold, reads any
// hold, and a `:w` alternative always needs an exclusive hold.
func holdSuffices(l *heldLock, alt guardAlt, write bool) bool {
	if write || alt.exclusive {
		return l.write
	}
	return true
}

func guardSpec(alts []guardAlt) string {
	parts := make([]string, len(alts))
	for i, a := range alts {
		parts[i] = a.String()
	}
	return strings.Join(parts, " or ")
}
