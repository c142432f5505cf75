package lint

// Analyzer "pathcost": every exported looping kernel in the counters'
// home subtree must charge *exec.Counters — and charge them on every
// path. The simulated runtimes in the paper's comparison are derived
// entirely from these counters, so a kernel that does work without
// charging it makes the wimpy nodes look faster than they are: exactly
// the unaccounted-work skew Sirin & Ailamaki warn about for OLAP cost
// attribution.
//
// Three findings, coarse to fine: a looping exported function with no
// Counters in scope at all; a Counters parameter never referenced; and
// a path through a kernel that does reference its Counters but returns
// (or falls off the end) after data work it never charged. The path
// check runs forward over the CFG with two may-facts per block:
//
//	clean — some path reaches here having done no data work yet
//	dirty — some path reaches here with uncharged data work
//
// Drawing an element in a range over column data, or executing a
// loop-body statement that indexes or calls, turns clean paths dirty.
// Any use of a Counters-typed value (charging a field, calling a
// method, forwarding it) settles every path through that point. A
// dirty fact reaching a return — or falling off the end of the body —
// is the finding. Panic paths are exempt by CFG construction (panic
// edges bypass the return machinery).
//
// fmt.Stringer's String() is exempt; per-element helpers whose callers
// charge in bulk opt out with `//lint:allow pathcost -- <reason>`.

import (
	"go/ast"
	"go/types"
)

// countersPkg is the home of the work-counter type every kernel must
// charge.
const countersPkg = "wimpi/internal/exec"

// PathCost is the pathcost analyzer.
var PathCost = &Analyzer{
	Name: "pathcost",
	Doc:  "exported kernels that loop over data must charge *exec.Counters, on every path to a return, early exits included",
	Run:  runPathCost,
}

func runPathCost(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if isStringer(pass, fd) || !containsLoop(fd.Body) {
				continue
			}
			ctrParams := countersParamNames(pass, fd)
			switch {
			case usesCounters(pass, fd.Body, true):
				// Only functions that take Counters themselves get the
				// path check; a compiler whose generated closures charge
				// their own ctr parameter (exec/fused's CompileRow) is
				// per-query code.
				if len(ctrParams) > 0 {
					checkPathCost(pass, fd)
				}
			case len(ctrParams) > 0:
				pass.Reportf(fd.Name.Pos(), "kernel %s accepts a *exec.Counters (%s) but never charges or forwards it", fd.Name.Name, ctrParams[0])
			default:
				pass.Reportf(fd.Name.Pos(), "exported kernel %s loops over data but has no *exec.Counters to charge: the hardware model will under-count this work", fd.Name.Name)
			}
		}
	}
}

// isStringer reports whether fd is a fmt.Stringer String() string
// method — formatting loops are not kernel work.
func isStringer(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Name.Name != "String" || fd.Recv == nil {
		return false
	}
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// containsLoop reports whether body has any for/range statement,
// including inside function literals (morsel callbacks count as the
// kernel's own loop).
func containsLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// countersParamNames returns the names of fd's parameters (and
// receiver) whose type is (*)exec.Counters.
func countersParamNames(pass *Pass, fd *ast.FuncDecl) []string {
	var names []string
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				if obj != nil && isNamed(obj.Type(), countersPkg, "Counters") {
					names = append(names, name.Name)
				}
			}
		}
	}
	return names
}

// costFact is the lattice element. Bottom is the zero value (no path
// reaches); reached distinguishes "unreachable" from "all paths
// charged".
type costFact struct {
	reached bool
	clean   bool // some path: no data work yet
	dirty   bool // some path: uncharged data work
}

type costProblem struct {
	pass *Pass
	// reports, when non-nil, collects (return, fact) sinks during the
	// replay pass.
	report bool
	fd     *ast.FuncDecl
}

func (p *costProblem) Boundary() costFact { return costFact{reached: true, clean: true} }
func (p *costProblem) Bottom() costFact   { return costFact{} }

func (p *costProblem) Join(dst, src costFact) (costFact, bool) {
	merged := costFact{
		reached: dst.reached || src.reached,
		clean:   dst.clean || src.clean,
		dirty:   dst.dirty || src.dirty,
	}
	return merged, merged != dst
}

func (p *costProblem) Transfer(b *Block, in costFact) costFact {
	if !in.reached {
		return in
	}
	st := in
	if b.RangeBody != nil && rangesOverData(p.pass, b.RangeBody) && st.clean {
		st.clean, st.dirty = false, true
	}
	for _, n := range b.Nodes {
		if usesCounters(p.pass, n, false) {
			st.clean, st.dirty = false, false
			continue
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			if p.report && !b.InClosure && st.dirty {
				p.pass.Reportf(ret.Pos(), "kernel %s has a path that returns here after touching column data without charging Counters", p.fd.Name.Name)
			}
			continue
		}
		if b.LoopBody && stmtDoesWork(n) && st.clean {
			st.clean, st.dirty = false, true
		}
	}
	return st
}

func checkPathCost(pass *Pass, fd *ast.FuncDecl) {
	if pass.Allowed(fd.Name.Pos()) {
		return
	}
	g := BuildCFG(fd.Body)
	problem := &costProblem{pass: pass, fd: fd}
	in, out := Solve(g, Forward, problem)

	// Replay reachable blocks with reporting on: dirty facts at return
	// statements become findings.
	problem.report = true
	for _, b := range g.Blocks {
		if in[b].reached {
			problem.Transfer(b, in[b])
		}
	}
	// A void kernel can also leave by falling off the end: finally's
	// predecessors without a Returns entry are those paths.
	for _, b := range g.Finally.Preds {
		if len(b.Returns) == 0 && out[b].dirty {
			pass.Reportf(fd.Body.Rbrace, "kernel %s has a path that falls off the end after touching column data without charging Counters", fd.Name.Name)
			break
		}
	}
}

// rangesOverData reports whether rs iterates column data: a slice or
// array of basic elements, or a string. Ranging over operator lists,
// maps of partitions, or channels is orchestration, not kernel work.
func rangesOverData(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isBasicElem(u.Elem())
	case *types.Array:
		return isBasicElem(u.Elem())
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// isBasicElem reports whether t is a basic scalar or string — the
// element types column vectors hold.
func isBasicElem(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric|types.IsString|types.IsBoolean) != 0
}

// stmtDoesWork reports whether a loop-body statement does chargeable
// work: indexing into memory or calling a function (len, cap, and
// panic excepted).
func stmtDoesWork(n ast.Node) bool {
	if _, isStmt := n.(ast.Stmt); !isStmt {
		return false // conditions are control, not work
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // inlined separately; its blocks do their own work
		case *ast.IndexExpr:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "len", "cap", "panic":
					return true // look inside the args only
				}
			}
			found = true
		}
		return !found
	})
	return found
}

// usesCounters reports whether n references any Counters-typed
// identifier — a charge, a method call, or forwarding to a callee that
// charges. Nested function literals count only with intoClosures: the
// whole-body check takes a morsel callback's charge as the kernel's,
// while the CFG transfer leaves closure bodies to their own blocks.
func usesCounters(pass *Pass, n ast.Node, intoClosures bool) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok && fl != n && !intoClosures {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return !used
		}
		if obj := pass.Info.Uses[id]; obj != nil && isNamed(obj.Type(), countersPkg, "Counters") {
			used = true
		}
		return !used
	})
	return used
}
