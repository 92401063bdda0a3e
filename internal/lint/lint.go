// Package lint is a dependency-free static-analysis driver for this
// module: a small framework (loader, analyzer interface, suppression
// comments, diagnostics) plus the analyzers that enforce the repository's
// crash-safety, concurrency and determinism invariants. It is built only
// on the standard library go/* packages — the module stays at zero
// external dependencies — and is wired into `make lint` / `make check`
// through cmd/pqlint.
//
// The analyzers and the guarantee each one protects are tabulated once,
// in ARCHITECTURE.md's "Enforced invariants"; `pqlint -list` prints the
// one-line rule of each. Five of them share one flow engine
// (lockflow.go): lockcheck, lockorder, spancheck, obscheck and
// goroutinecheck.
//
// # Suppression
//
// A finding can be silenced with a comment naming the analyzer:
//
//	//pqlint:allow fsiocheck — reason the invariant holds anyway
//
// The comment applies to the line it is on and to the next line only.
// The file-scoped variant
//
//	//pqlint:allowfile goroutinecheck — reason the whole file is exempt
//
// suppresses the named analyzers everywhere in its file. Unknown
// analyzer names in either form are themselves reported, so a typo
// cannot silently disable checking.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: the violated invariant at a position, with a
// hint describing how to fix it.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	Hint     string         `json:"hint,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	if d.Hint != "" {
		s += "\n\thint: " + d.Hint
	}
	return s
}

// Analyzer is one invariant checker. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is the per-(analyzer, package) invocation context.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportHintf(pos, "", format, args...)
}

// ReportHintf records a finding at pos with a fix hint.
func (p *Pass) ReportHintf(pos token.Pos, hint, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// All returns every analyzer of the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		FsioCheck, ObsCheck, SpanCheck, AliasCheck, ErrcheckDurability, DetCheck,
		LockCheck, LockOrder, AtomicCheck, GoroutineCheck,
	}
}

// ByName resolves analyzer names (e.g. from -only/-skip flags) against
// the registry, failing on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	index := make(map[string]*Analyzer)
	for _, a := range All() {
		index[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(Names(All()), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names returns the names of the given analyzers.
func Names(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

// allowPrefix is the suppression-comment marker. The full form is
// "//pqlint:allow name1,name2 optional reason". The file-scoped variant
// "//pqlint:allowfile name1,name2 reason" suppresses the named
// analyzers for the whole file.
const (
	allowPrefix     = "pqlint:allow"
	allowFilePrefix = "pqlint:allowfile"
)

// Run executes the analyzers over the packages, applies the
// //pqlint:allow suppressions, and returns the surviving diagnostics
// sorted by position. Malformed or unknown-analyzer allow comments are
// reported as diagnostics of the pseudo-analyzer "pqlint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}

	// allowed[file][line] = analyzer names suppressed at that line. An
	// allow comment on line N covers findings on N (trailing comments)
	// and on N+1, and nothing else. allowedFile[file] = analyzer names
	// suppressed for the entire file by //pqlint:allowfile.
	allowed := make(map[string]map[int]map[string]bool)
	allowedFile := make(map[string]map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			scanAllows(pkg, f, allowed, allowedFile, known, report)
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, report: report}
			a.Run(pass)
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if d.Analyzer != "pqlint" && (suppressed(allowed, d) || allowedFile[d.File][d.Analyzer]) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

func suppressed(allowed map[string]map[int]map[string]bool, d Diagnostic) bool {
	lines := allowed[d.File]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{d.Line, d.Line - 1} {
		if lines[l][d.Analyzer] {
			return true
		}
	}
	return false
}

// scanAllows indexes every //pqlint:allow and //pqlint:allowfile
// comment of the file and reports malformed ones.
func scanAllows(pkg *Package, f *ast.File, allowed map[string]map[int]map[string]bool, allowedFile map[string]map[string]bool, known map[string]bool, report func(Diagnostic)) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, allowPrefix) {
				continue
			}
			// allowPrefix is a prefix of allowFilePrefix: distinguish first.
			fileScoped := strings.HasPrefix(text, allowFilePrefix)
			marker, prefix := "//pqlint:allow", allowPrefix
			if fileScoped {
				marker, prefix = "//pqlint:allowfile", allowFilePrefix
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
			pos := pkg.Fset.Position(c.Pos())
			names := ""
			if fields := strings.Fields(rest); len(fields) > 0 {
				names = fields[0]
			}
			if names == "" {
				report(Diagnostic{
					Analyzer: "pqlint", Pos: pos,
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: marker + " comment names no analyzer",
					Hint:    "write " + marker + " <analyzer>[,<analyzer>...] <reason>",
				})
				continue
			}
			for _, name := range strings.Split(names, ",") {
				if !known[name] {
					report(Diagnostic{
						Analyzer: "pqlint", Pos: pos,
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("unknown analyzer %q in %s comment", name, marker),
						Hint:    "known analyzers: " + strings.Join(Names(All()), ", "),
					})
					continue
				}
				if fileScoped {
					if allowedFile[pos.Filename] == nil {
						allowedFile[pos.Filename] = make(map[string]bool)
					}
					allowedFile[pos.Filename][name] = true
					continue
				}
				if allowed[pos.Filename] == nil {
					allowed[pos.Filename] = make(map[int]map[string]bool)
				}
				if allowed[pos.Filename][pos.Line] == nil {
					allowed[pos.Filename][pos.Line] = make(map[string]bool)
				}
				allowed[pos.Filename][pos.Line][name] = true
			}
		}
	}
}
