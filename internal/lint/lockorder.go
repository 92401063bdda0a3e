package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockOrder enforces a declared global lock-acquisition order. A
// package that nests locks declares the partial order in one or more
// manifest comments (line or block form, anywhere in the package):
//
//	//pqlint:lockorder Index.mu < treeEntry.mu < shard.mu
//
// Each chain contributes pairwise edges and the relation is closed
// transitively. Inside a manifest package, every nested acquisition
// must follow a declared edge: acquiring against the order is a
// potential deadlock cycle, and an edge the manifest does not cover is
// reported so the declaration stays complete. Packages without a
// manifest are only checked for same-class nesting (acquiring a lock
// of a class already held — self-deadlock with a plain Mutex, a
// writer-starvation deadlock with an RWMutex), which is suspect
// everywhere; two instances of a class may only be nested under a
// sanctioned total order (this repo uses ascending document ID), which
// is what the //pqlint:allow comment documents.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisitions follow the //pqlint:lockorder manifest; same-class nesting flagged",
	Run:  runLockOrder,
}

const lockorderPrefix = "pqlint:lockorder"

type lockOrderDecl struct {
	present bool
	less    map[lockClass]map[lockClass]bool
	classes []lockClass
	pos     token.Pos
}

func runLockOrder(p *Pass) {
	order := collectLockOrder(p)
	ann := collectLockAnnotations(p, nil) // lockcheck reports malformed annotations
	walkFuncs(p, ann, func(*ast.BlockStmt) flowHooks {
		return flowHooks{acquire: func(l *heldLock, prior []*heldLock) {
			checkAcquisition(p, order, l, prior)
		}}
	})
}

func checkAcquisition(p *Pass, order *lockOrderDecl, l *heldLock, prior []*heldLock) {
	seen := make(map[lockClass]bool)
	for _, h := range prior {
		if seen[h.class] {
			continue
		}
		seen[h.class] = true
		if h.class == l.class {
			p.ReportHintf(l.pos,
				"nest two instances of one class only under a sanctioned total order (e.g. ascending ID) and //pqlint:allow lockorder with that reason",
				"acquires %s while already holding %s (same lock class)", l.class, h.class)
			continue
		}
		if !order.present {
			continue
		}
		if order.less[h.class][l.class] {
			continue
		}
		if order.less[l.class][h.class] {
			p.ReportHintf(l.pos,
				"release the held lock first, or change the declared order if this nesting is the intended one",
				"acquires %s while holding %s, violating the declared lock order (%s < %s)",
				l.class, h.class, l.class, h.class)
			continue
		}
		p.ReportHintf(l.pos,
			"add the edge to a //pqlint:lockorder manifest comment, or //pqlint:allow lockorder with a reason",
			"acquisition edge %s -> %s is not covered by the //pqlint:lockorder manifest", h.class, l.class)
	}
}

// collectLockOrder parses the package's manifest comments, validates
// the named classes, builds the transitive closure, and reports
// malformed manifests and declared cycles.
func collectLockOrder(p *Pass) *lockOrderDecl {
	order := &lockOrderDecl{less: make(map[lockClass]map[lockClass]bool)}
	addEdge := func(a, b lockClass) {
		if order.less[a] == nil {
			order.less[a] = make(map[lockClass]bool)
		}
		order.less[a][b] = true
	}
	addClass := func(c lockClass) {
		for _, have := range order.classes {
			if have == c {
				return
			}
		}
		order.classes = append(order.classes, c)
	}
	for _, f := range p.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := commentText(c.Text)
				rest, ok := strings.CutPrefix(text, lockorderPrefix)
				if !ok {
					continue
				}
				if order.pos == token.NoPos {
					order.pos = c.Pos()
				}
				chain, bad := parseLockOrderChain(p, rest)
				if bad != "" {
					p.ReportHintf(c.Pos(),
						"write //pqlint:lockorder A.mu < B.mu < C.mu with each class a mutex field of a struct in this package",
						"malformed //pqlint:lockorder manifest: %s", bad)
					continue
				}
				order.present = true
				for i := 0; i+1 < len(chain); i++ {
					addEdge(chain[i], chain[i+1])
					addClass(chain[i])
					addClass(chain[i+1])
				}
			}
		}
	}
	if !order.present {
		return order
	}
	// Transitive closure, then cycle detection: a < a after closure
	// means the declared chains contradict each other.
	for _, k := range order.classes {
		for _, a := range order.classes {
			for _, b := range order.classes {
				if order.less[a][k] && order.less[k][b] {
					addEdge(a, b)
				}
			}
		}
	}
	for _, a := range order.classes {
		if order.less[a][a] {
			p.Reportf(order.pos, "//pqlint:lockorder manifest declares a cycle through %s", a)
			break
		}
	}
	return order
}

// parseLockOrderChain parses "A.mu < B.mu < C.mu" into classes,
// validating Type.field names against the package scope. Bare names
// (package-level or local mutex variables) are accepted unvalidated.
func parseLockOrderChain(p *Pass, spec string) ([]lockClass, string) {
	var chain []lockClass
	parts := strings.Split(spec, "<")
	if len(parts) < 2 {
		return nil, "a manifest needs at least two classes separated by <"
	}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" || strings.ContainsAny(part, " \t") {
			return nil, "class " + "\"" + part + "\"" + " is not a single Type.field or mutex name"
		}
		c := lockClass{field: part}
		if dot := strings.IndexByte(part, '.'); dot >= 0 {
			c = lockClass{typeName: part[:dot], field: part[dot+1:]}
			if _, ok := packageMutexField(p, c.typeName, c.field); !ok {
				return nil, "class " + part + " does not name a sync.Mutex/RWMutex field of a struct type in this package"
			}
		}
		chain = append(chain, c)
	}
	return chain, ""
}

// commentText strips the comment markers from a line or block comment.
func commentText(text string) string {
	if rest, ok := strings.CutPrefix(text, "//"); ok {
		return strings.TrimSpace(rest)
	}
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	return strings.TrimSpace(text)
}
