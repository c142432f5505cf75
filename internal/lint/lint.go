// Package lint implements wimpi-lint: a suite of custom static
// analyzers that machine-check the invariants the paper's methodology
// rests on. Simulated runtimes are derived from work counters charged
// by kernels, and distributed strategies are only comparable because
// every node produces byte-identical results — so determinism, cost
// accounting, context discipline, goroutine hygiene, and wire-protocol
// error handling are enforced for every future change, not just the
// paths example-based tests happen to cover.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-hosted on the standard
// library: packages are loaded with `go list -export` and type-checked
// against toolchain export data (see load.go). This keeps the module
// dependency-free, which matters on the wimpy targets the paper builds
// for — the lint suite cross-builds and runs on a Pi with nothing but
// the Go toolchain.
//
// Findings are suppressed with an explicit, audited directive:
//
//	//lint:allow <analyzer> -- <reason>
//
// placed on (or immediately above) the offending line, or in the doc
// comment of a function to exempt its whole body. The reason is
// mandatory; a bare directive is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run reports the analyzer's findings for one package through
	// pass.Report.
	Run func(pass *Pass)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the violation.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass connects one analyzer run to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	allows      *allowIndex
	diagnostics []Diagnostic
}

// Reportf records a finding at pos unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.allowed(p.Analyzer.Name, position) {
		return
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a directive for this pass's analyzer covers
// pos. Flow-sensitive analyzers use it to silence a *source* (a map
// range, a time.Now call) before the taint propagates, rather than
// only the final report site.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.allows.allowed(p.Analyzer.Name, p.Fset.Position(pos))
}

// TypeOf is a nil-safe shortcut for the checker's expression types.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ObjectOf resolves an identifier to its object (use or def).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// Run executes the analyzers over pkg and returns their findings in
// file/line order. Malformed allow directives (missing the mandatory
// "-- reason") are reported as findings of the pseudo-analyzer
// "directive".
func Run(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	return run(pkg, analyzers, false)
}

// RunAll is Run plus the unuseddirective audit: after every analyzer
// has run, any allow directive that suppressed nothing is itself a
// finding. The multichecker uses this entry point; Run stays
// audit-free so single-analyzer fixture tests don't trip over each
// other's directives.
func RunAll(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	return run(pkg, analyzers, true)
}

func run(pkg *Package, analyzers []*Analyzer, auditDirectives bool) []Diagnostic {
	allows, bad := indexAllows(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	diags = append(diags, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			allows:   allows,
		}
		a.Run(pass)
		diags = append(diags, pass.diagnostics...)
	}
	if auditDirectives {
		diags = append(diags, auditAllows(allows, analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// ---------------------------------------------------------------------------
// Allow directives

// allowDirective is the comment prefix that suppresses a finding.
const allowDirective = "//lint:allow "

// allowEntry is one parsed allow directive. hits counts how many times
// it suppressed a finding (or answered a Pass.Allowed probe); the
// unuseddirective audit flags entries that stay at zero.
type allowEntry struct {
	name string
	pos  token.Position
	hits int
}

// allowIndex records, per file, which allow entries cover which lines.
type allowIndex struct {
	// byLine maps filename -> line -> entries covering that line. A
	// doc-comment directive appears on every line of its function, all
	// sharing one entry.
	byLine  map[string]map[int][]*allowEntry
	entries []*allowEntry
}

// allowed reports whether a directive covers the diagnostic position:
// either on the same line, on the line directly above, or via a
// function-doc directive whose range spans the position (indexed as
// every line of the function when built). Matching bumps the entry's
// hit count.
func (ai *allowIndex) allowed(analyzer string, pos token.Position) bool {
	if ai == nil {
		return false
	}
	lines := ai.byLine[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, e := range lines[l] {
			if e.name == analyzer {
				e.hits++
				return true
			}
		}
	}
	return false
}

// indexAllows scans comments for allow directives. A directive in a
// function's doc comment covers every line of that function's body; any
// other directive covers its own line (and, by the lookup rule, the
// line below). Directives lacking the mandatory reason are returned as
// diagnostics.
func indexAllows(fset *token.FileSet, files []*ast.File) (*allowIndex, []Diagnostic) {
	ai := &allowIndex{byLine: map[string]map[int][]*allowEntry{}}
	var bad []Diagnostic
	mark := func(file string, line int, e *allowEntry) {
		if ai.byLine[file] == nil {
			ai.byLine[file] = map[int][]*allowEntry{}
		}
		ai.byLine[file][line] = append(ai.byLine[file][line], e)
	}
	for _, f := range files {
		// Doc-comment directives exempt whole declarations.
		docRange := map[*ast.CommentGroup][2]token.Pos{}
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Doc != nil {
				docRange[fd.Doc] = [2]token.Pos{fd.Pos(), fd.End()}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok, withReason := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if !withReason {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "directive",
						Message:  fmt.Sprintf("lint:allow %s directive is missing its mandatory `-- reason`", strings.Join(names, ",")),
					})
					continue
				}
				for _, name := range names {
					e := &allowEntry{name: name, pos: pos}
					ai.entries = append(ai.entries, e)
					if r, isDoc := docRange[cg]; isDoc {
						start, end := fset.Position(r[0]), fset.Position(r[1])
						for l := start.Line; l <= end.Line; l++ {
							mark(pos.Filename, l, e)
						}
						continue
					}
					mark(pos.Filename, pos.Line, e)
				}
			}
		}
	}
	return ai, bad
}

// auditAllows reports allow directives that suppressed nothing during
// this run. A directive naming an analyzer that did not run on this
// package is not audited — suite scoping means cross-package sweeps
// see partial analyzer sets — unless the name is unknown to the suite
// entirely, which is always a typo worth flagging.
func auditAllows(ai *allowIndex, ran []*Analyzer) []Diagnostic {
	ranNames := map[string]bool{}
	for _, a := range ran {
		ranNames[a.Name] = true
	}
	var diags []Diagnostic
	for _, e := range ai.entries {
		if e.hits > 0 {
			continue
		}
		var msg string
		switch {
		case ranNames[e.name]:
			msg = fmt.Sprintf("lint:allow %s suppresses nothing; remove the stale directive", e.name)
		case knownAnalyzerName(e.name):
			continue // analyzer scoped out of this package's run
		default:
			msg = fmt.Sprintf("lint:allow names unknown analyzer %q", e.name)
		}
		diags = append(diags, Diagnostic{Pos: e.pos, Analyzer: "unuseddirective", Message: msg})
	}
	return diags
}

// parseAllow decodes one comment. It returns the analyzer names (one
// directive may allow several, comma-separated), whether the comment is
// an allow directive at all, and whether it carries the mandatory
// reason.
func parseAllow(text string) (names []string, ok, withReason bool) {
	if !strings.HasPrefix(text, allowDirective) {
		return nil, false, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowDirective))
	namePart, reason, found := strings.Cut(rest, "--")
	fields := strings.Fields(namePart)
	if len(fields) == 0 {
		return nil, false, false
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, false, false
	}
	return names, true, found && strings.TrimSpace(reason) != ""
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers used by several analyzers.

// calleeObj resolves the object a call expression invokes, seeing
// through parentheses. It returns nil for indirect calls through
// non-selector/non-ident expressions.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return f.Pkg().Path() == pkgPath && f.Name() == name
}

// namedType returns the named type of t, unwrapping one level of
// pointer.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t is (a pointer to) the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// funcFirstParamIsContext reports whether the function type's first
// parameter is a context.Context.
func funcFirstParamIsContext(sig *types.Signature) bool {
	if sig == nil || sig.Params().Len() == 0 {
		return false
	}
	return isNamed(sig.Params().At(0).Type(), "context", "Context")
}
