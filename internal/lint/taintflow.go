package lint

// Analyzer "taintflow": flow-sensitive determinism checking. A
// syntactic check can say "you ranged over a map"; this one can say "a
// value whose content depends on map iteration order (or the wall
// clock, or unseeded rand, or pointer identity) reached a result a
// caller can observe". That difference matters in both directions: the
// sorted-keys idiom (collect, sort, then range) is clean here without
// any directive, while a map-range value laundered through three
// assignments and an append into a result slice is still caught.
//
// Sinks are the places nondeterminism becomes externally visible:
// values returned from a function, and tainted writes into
// parameter-rooted slices (result buffers filled in place, the kernel
// calling convention in internal/exec).
//
// Two sources have no value to follow, so they are findings where they
// appear: a global math/rand call that returns nothing (rand.Shuffle
// permutes its operand differently on every run), and a float
// comparator that can return 0 without consulting math.IsNaN (see
// checkFloatComparator). The paper's distributed strategies are only
// comparable because every node, and every re-dispatch of a failed
// node's partition, produces byte-identical partial results.
//
// Suppression: `//lint:allow taintflow -- reason` at the *source*
// (the map range, the time.Now call) silences everything it would have
// tainted; at the sink it silences just that report.

import (
	"go/ast"
	"go/types"
)

// TaintFlow is the taintflow analyzer.
var TaintFlow = &Analyzer{
	Name: "taintflow",
	Doc:  "flow-sensitive taint analysis from nondeterminism sources (map order, time.Now, global rand, pointer identity) to result-producing sinks, plus global rand shuffles and NaN-oblivious float comparators",
	Run:  runTaintFlow,
}

func runTaintFlow(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncTaint(pass, n)
					checkFloatComparator(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkFloatComparator(pass, n.Type, n.Body)
			case *ast.CallExpr:
				checkVoidGlobalRand(pass, n)
			}
			return true
		})
	}
}

func checkFuncTaint(pass *Pass, fd *ast.FuncDecl) {
	flow := &taintFlow{
		pass:   pass,
		params: map[types.Object]bool{},
	}
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, name := range f.Names {
				flow.params[pass.Info.Defs[name]] = true
			}
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				flow.params[pass.Info.Defs[name]] = true
			}
		}
	}
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if o := pass.Info.Defs[name]; o != nil {
					flow.results = append(flow.results, o)
				}
			}
		}
	}

	g := BuildCFG(fd.Body)
	problem := &taintProblem{f: flow}
	in, _ := Solve(g, Forward, problem)

	// Replay each reachable block once over its fixed-point entry fact
	// with reporting on. The fixed point already joined every path, so
	// one replay per block sees the worst-case taint at each sink.
	flow.report = true
	for _, b := range g.Blocks {
		if fact := in[b]; fact != nil && fact.reached {
			flow.transferBlock(b, fact)
		}
	}
}

// checkVoidGlobalRand flags a global math/rand call with no result
// (rand.Shuffle): it yields no value for the flow to follow, yet what
// it permutes comes out in a different order on every run.
func checkVoidGlobalRand(pass *Pass, call *ast.CallExpr) {
	fn, ok := calleeObj(pass.Info, call).(*types.Func)
	if !ok || !isGlobalRand(fn) || fn.Type().(*types.Signature).Results().Len() != 0 {
		return
	}
	pass.Reportf(call.Pos(), "global %s.%s draws from the shared unseeded source: use a rand.New(rand.NewSource(seed)) local generator", fn.Pkg().Path(), fn.Name())
}

// checkFloatComparator flags int-returning functions over float
// operands whose body can `return 0` without ever asking math.IsNaN.
// IEEE `<` and `>` are both false when either operand is NaN, so such a
// comparator calls NaN equal to everything, which is not a total order:
// a sort built on it emits NaNs wherever the input order happened to
// put them, and a parallel sort varies with the worker count.
func checkFloatComparator(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt) {
	if !isOrderingSig(pass, ft) {
		return
	}
	var zeroReturns []*ast.ReturnStmt
	checksNaN := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested functions judged on their own
		case *ast.ReturnStmt:
			if len(n.Results) == 1 {
				if lit, ok := n.Results[0].(*ast.BasicLit); ok && lit.Value == "0" {
					zeroReturns = append(zeroReturns, n)
				}
			}
		case *ast.CallExpr:
			if obj := calleeObj(pass.Info, n); obj != nil && isPkgFunc(obj, "math", "IsNaN") {
				checksNaN = true
			}
		}
		return true
	})
	if checksNaN {
		return
	}
	for _, r := range zeroReturns {
		pass.Reportf(r.Pos(), "float comparator returns 0 without a math.IsNaN check: IEEE < and > are both false for NaN, so this is not a total order and parallel sorts using it diverge by worker count")
	}
}

// isOrderingSig reports whether ft takes at least one float operand and
// returns exactly one int — the shape of a three-way comparator.
func isOrderingSig(pass *Pass, ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) != 1 || len(ft.Results.List[0].Names) > 1 {
		return false
	}
	rt := pass.TypeOf(ft.Results.List[0].Type)
	if rt == nil {
		return false
	}
	rb, ok := rt.Underlying().(*types.Basic)
	if !ok || rb.Kind() != types.Int {
		return false
	}
	if ft.Params == nil {
		return false
	}
	for _, p := range ft.Params.List {
		if t := pass.TypeOf(p.Type); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				return true
			}
		}
	}
	return false
}
