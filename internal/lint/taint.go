package lint

// The value-taint lattice. A taint is "this value depends on a source
// of run-to-run nondeterminism"; the lattice element is a map from the
// function's variables to the set of source kinds (with the position of
// the first source, for diagnostics). Facts flow forward through the
// CFG and join by union — may-taint.
//
// The transfer rules encode which operations launder nondeterminism
// and which merely move it:
//
//   - Ranging a map taints the iteration variables with "map order":
//     the *set* of keys is deterministic, their *sequence* is not.
//   - Appending a map-order value to a slice makes the slice
//     order-tainted; writing it into another map does not (map content
//     is a set — insertion order is invisible), so the classic
//     invert-one-map-into-another pattern is clean without a directive.
//   - Integer accumulation (`sum += v` and friends) over a map-order
//     value is commutative, so the result is order-independent and
//     stays clean; float accumulation is not (rounding depends on
//     order) and is tainted.
//   - sort.* / slices.Sort* calls are sanitizers for map order: a
//     sorted slice has a deterministic sequence again. Other kinds
//     (wall clock, rand) survive sorting — sorting fixes order, not
//     values.
//   - len and cap of anything are deterministic.
//
// Everything else propagates: arithmetic, conversions, indexing,
// field access, composite literals, and calls (a call's result is
// assumed tainted when any argument or the receiver is — the safe
// intraprocedural approximation).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TaintKind is one source of nondeterminism.
type TaintKind uint8

// The taint kinds.
const (
	// TaintMapOrder marks values observed in map iteration order.
	TaintMapOrder TaintKind = iota
	// TaintWallClock marks values derived from time.Now.
	TaintWallClock
	// TaintRand marks values drawn from the global math/rand source.
	TaintRand
	// TaintPtrIdent marks values derived from pointer identity
	// (uintptr conversions, reflect pointers, %p formatting).
	TaintPtrIdent

	numTaintKinds
)

func (k TaintKind) String() string {
	switch k {
	case TaintMapOrder:
		return "map iteration order"
	case TaintWallClock:
		return "the wall clock (time.Now)"
	case TaintRand:
		return "the global math/rand source"
	default:
		return "pointer identity"
	}
}

// taintVal is the taint of one value: a kind bitmask plus the first
// source position per kind.
type taintVal struct {
	mask uint8
	pos  [numTaintKinds]token.Pos
}

func (v taintVal) has(k TaintKind) bool { return v.mask&(1<<k) != 0 }

func (v taintVal) addSource(k TaintKind, p token.Pos) taintVal {
	if !v.has(k) {
		v.mask |= 1 << k
		v.pos[k] = p
	}
	return v
}

// union merges w into v, keeping the earliest source position per kind.
func (v taintVal) union(w taintVal) taintVal {
	for k := TaintKind(0); k < numTaintKinds; k++ {
		if w.has(k) {
			if !v.has(k) || (w.pos[k] != token.NoPos && w.pos[k] < v.pos[k]) {
				v.pos[k] = w.pos[k]
			}
			v.mask |= 1 << k
		}
	}
	return v
}

// clear removes one kind.
func (v taintVal) clear(k TaintKind) taintVal {
	v.mask &^= 1 << k
	v.pos[k] = token.NoPos
	return v
}

// taintState is the lattice element: reached distinguishes "no path
// gets here" (bottom) from "reachable with no taints".
type taintState struct {
	reached bool
	vars    map[types.Object]taintVal
}

func (s *taintState) clone() *taintState {
	c := &taintState{reached: s.reached, vars: make(map[types.Object]taintVal, len(s.vars))}
	for o, v := range s.vars {
		c.vars[o] = v
	}
	return c
}

func (s *taintState) get(o types.Object) taintVal {
	if o == nil {
		return taintVal{}
	}
	return s.vars[o]
}

func (s *taintState) set(o types.Object, v taintVal) {
	if o == nil {
		return
	}
	if v.mask == 0 {
		delete(s.vars, o)
		return
	}
	s.vars[o] = v
}

// weaken unions v into o's existing taint (weak update for writes
// through fields, elements, and pointers).
func (s *taintState) weaken(o types.Object, v taintVal) {
	if o == nil || v.mask == 0 {
		return
	}
	s.vars[o] = s.get(o).union(v)
}

// taintFlow evaluates expressions and statements over taintStates for
// one function.
type taintFlow struct {
	pass *Pass
	// params holds the parameter and receiver objects (sink roots for
	// result-buffer writes); results holds named result objects.
	params  map[types.Object]bool
	results []types.Object
	// report, when true, emits diagnostics at sinks (the replay pass
	// after the fixed point).
	report bool
}

// Problem implementation.

type taintProblem struct{ f *taintFlow }

func (p *taintProblem) Boundary() *taintState {
	return &taintState{reached: true, vars: map[types.Object]taintVal{}}
}

func (p *taintProblem) Bottom() *taintState { return &taintState{} }

func (p *taintProblem) Join(dst, src *taintState) (*taintState, bool) {
	if src == nil || !src.reached {
		return dst, false
	}
	if !dst.reached {
		return src.clone(), true
	}
	changed := false
	for o, v := range src.vars {
		merged := dst.get(o).union(v)
		if merged != dst.vars[o] {
			dst.vars[o] = merged
			changed = true
		}
	}
	return dst, changed
}

func (p *taintProblem) Transfer(b *Block, in *taintState) *taintState {
	return p.f.transferBlock(b, in)
}

func (f *taintFlow) transferBlock(b *Block, in *taintState) *taintState {
	if !in.reached {
		return in
	}
	st := in.clone()
	for _, n := range b.Nodes {
		f.transferNode(b, st, n)
	}
	return st
}

func (f *taintFlow) transferNode(b *Block, st *taintState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		f.assign(st, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t taintVal
					if len(vs.Values) == 1 && len(vs.Names) > 1 {
						t = f.exprTaint(st, vs.Values[0])
					} else if i < len(vs.Values) {
						t = f.exprTaint(st, vs.Values[i])
					}
					st.set(f.pass.ObjectOf(name), t)
				}
			}
		}
	case *ast.RangeStmt:
		f.rangeHeader(st, n)
	case *ast.ReturnStmt:
		if f.report && !b.InClosure {
			f.checkReturn(st, n)
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			f.sanitizeCall(st, call)
			// A method call may smuggle taint into its receiver
			// (w.Add(tainted)); weak-union the receiver root.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				var t taintVal
				for _, a := range call.Args {
					t = t.union(f.exprTaint(st, a))
				}
				st.weaken(rootObj(f.pass, sel.X), t)
			}
		}
	case *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
		// x++ / x-- are order-independent; channel sends, go, and defer
		// argument evaluation change no tracked state.
	}
}

// assign handles =, :=, and the compound operators.
func (f *taintFlow) assign(st *taintState, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// Compound: x op= v. Integer accumulation with commutative
		// operators is order-independent, so map-order taint does not
		// transfer; everything else unions in.
		lhs := n.Lhs[0]
		t := f.exprTaint(st, n.Rhs[0])
		if commutativeOp(n.Tok) && isIntegerExpr(f.pass, lhs) && t.mask == 1<<TaintMapOrder {
			return
		}
		f.setLHS(st, lhs, t.union(f.lhsTaint(st, lhs)))
		return
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// x, y := f(...): every LHS gets the call's taint.
		t := f.exprTaint(st, n.Rhs[0])
		for _, l := range n.Lhs {
			f.setLHS(st, l, t)
		}
		return
	}
	for i, l := range n.Lhs {
		if i < len(n.Rhs) {
			f.setLHS(st, l, f.exprTaint(st, n.Rhs[i]))
		}
	}
}

// lhsTaint reads the current taint of an lvalue (for compound ops).
func (f *taintFlow) lhsTaint(st *taintState, e ast.Expr) taintVal {
	return f.exprTaint(st, e)
}

// setLHS writes taint t through an lvalue. Identifiers get strong
// updates; element/field/pointer writes weak-union their root object.
// Two special rules live here: writing into a map kills map-order
// taint (content is a set), and writing a tainted value into a
// parameter-rooted slice is a result-buffer sink.
func (f *taintFlow) setLHS(st *taintState, e ast.Expr, t taintVal) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		st.set(f.pass.ObjectOf(e), t)
	case *ast.IndexExpr:
		t = t.union(f.exprTaint(st, e.Index))
		root := rootObj(f.pass, e.X)
		xt := f.pass.TypeOf(e.X)
		if xt != nil {
			if _, isMap := xt.Underlying().(*types.Map); isMap {
				// The same set of entries lands in the map on every
				// run; only sequence-sensitive consumers care.
				t = t.clear(TaintMapOrder)
				st.weaken(root, t)
				return
			}
		}
		if f.report && t.mask != 0 && root != nil && f.params[root] {
			f.reportTaint(e.Pos(), t, "value written into result buffer %s", root.Name())
		}
		st.weaken(root, t)
	case *ast.SelectorExpr:
		st.weaken(rootObj(f.pass, e.X), t)
	case *ast.StarExpr:
		st.weaken(rootObj(f.pass, e.X), t)
	}
}

// rangeHeader taints the iteration variables: map ranges inject
// map-order taint; ranging anything else propagates the operand's
// taint to the loop variables.
func (f *taintFlow) rangeHeader(st *taintState, rs *ast.RangeStmt) {
	t := f.exprTaint(st, rs.X)
	if xt := f.pass.TypeOf(rs.X); xt != nil {
		if _, isMap := xt.Underlying().(*types.Map); isMap && !f.pass.Allowed(rs.Pos()) {
			t = t.addSource(TaintMapOrder, rs.Pos())
		}
	}
	if rs.Key != nil {
		f.setLHS(st, rs.Key, t)
	}
	if rs.Value != nil {
		f.setLHS(st, rs.Value, t)
	}
}

// checkReturn reports tainted results flowing out of the function.
func (f *taintFlow) checkReturn(st *taintState, ret *ast.ReturnStmt) {
	if len(ret.Results) == 0 {
		for _, o := range f.results {
			if t := st.get(o); t.mask != 0 {
				f.reportTaint(ret.Pos(), t, "named result %s returned here", o.Name())
			}
		}
		return
	}
	for _, e := range ret.Results {
		if t := f.exprTaint(st, e); t.mask != 0 {
			f.reportTaint(ret.Pos(), t, "returned value")
		}
	}
}

func (f *taintFlow) reportTaint(pos token.Pos, t taintVal, format string, args ...any) {
	for k := TaintKind(0); k < numTaintKinds; k++ {
		if !t.has(k) {
			continue
		}
		src := ""
		if t.pos[k] != token.NoPos {
			src = " (source at " + f.pass.Fset.Position(t.pos[k]).String() + ")"
		}
		f.pass.Reportf(pos, "%s is tainted by %s%s: results must be byte-identical across runs — sort, seed, or restructure the source",
			fmt.Sprintf(format, args...), k, src)
	}
}

// sanitizeCall clears map-order taint from the argument of a sorting
// call: sort.X(s) / slices.Sort(s) / sort.Sort(byKey(s)) re-establish
// a deterministic sequence.
func (f *taintFlow) sanitizeCall(st *taintState, call *ast.CallExpr) {
	obj := calleeObj(f.pass.Info, call)
	if !isSortFunc(obj) || len(call.Args) == 0 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	// See through sort.Sort(byKey(s)) interface adapters.
	if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := f.pass.Info.Types[conv.Fun]; ok && tv.IsType() {
			arg = ast.Unparen(conv.Args[0])
		}
	}
	if root := rootObj(f.pass, arg); root != nil {
		st.set(root, st.get(root).clear(TaintMapOrder))
	}
}

// isSortFunc matches the package-level sorting functions in sort and
// slices that reorder their argument into a deterministic sequence.
func isSortFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Ints", "Strings", "Float64s":
			return true
		}
	case "slices":
		// Sort, SortFunc, SortStableFunc, Sorted, SortedFunc, ...
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// exprTaint computes the taint of an expression under st.
func (f *taintFlow) exprTaint(st *taintState, e ast.Expr) taintVal {
	switch e := e.(type) {
	case nil:
		return taintVal{}
	case *ast.Ident:
		return st.get(f.pass.ObjectOf(e))
	case *ast.ParenExpr:
		return f.exprTaint(st, e.X)
	case *ast.UnaryExpr:
		return f.exprTaint(st, e.X)
	case *ast.StarExpr:
		return f.exprTaint(st, e.X)
	case *ast.BinaryExpr:
		return f.exprTaint(st, e.X).union(f.exprTaint(st, e.Y))
	case *ast.IndexExpr:
		return f.exprTaint(st, e.X).union(f.exprTaint(st, e.Index))
	case *ast.SliceExpr:
		t := f.exprTaint(st, e.X)
		t = t.union(f.exprTaint(st, e.Low))
		t = t.union(f.exprTaint(st, e.High))
		return t.union(f.exprTaint(st, e.Max))
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := f.pass.ObjectOf(id).(*types.PkgName); isPkg {
				return taintVal{} // pkg.Name: a global, not a tracked var
			}
		}
		return f.exprTaint(st, e.X)
	case *ast.TypeAssertExpr:
		return f.exprTaint(st, e.X)
	case *ast.CompositeLit:
		var t taintVal
		for _, el := range e.Elts {
			t = t.union(f.exprTaint(st, el))
		}
		return t
	case *ast.KeyValueExpr:
		return f.exprTaint(st, e.Key).union(f.exprTaint(st, e.Value))
	case *ast.CallExpr:
		return f.callTaint(st, e)
	}
	// Literals, function literals, type expressions.
	return taintVal{}
}

// callTaint computes the taint of a call's result: sources, sanitizers,
// and the default arg-union propagation.
func (f *taintFlow) callTaint(st *taintState, call *ast.CallExpr) taintVal {
	// Conversions: T(x) propagates x, except pointer->uintptr which is
	// a pointer-identity source.
	if tv, ok := f.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		t := f.exprTaint(st, call.Args[0])
		if isUintptr(tv.Type) && isPointerish(f.pass.TypeOf(call.Args[0])) && !f.pass.Allowed(call.Pos()) {
			t = t.addSource(TaintPtrIdent, call.Pos())
		}
		return t
	}

	obj := calleeObj(f.pass.Info, call)
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "len", "cap", "make", "new":
			return taintVal{} // deterministic regardless of operand order
		default:
			var t taintVal
			for _, a := range call.Args {
				t = t.union(f.exprTaint(st, a))
			}
			return t
		}
	}

	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		switch {
		case isPkgFunc(obj, "time", "Now"):
			if !f.pass.Allowed(call.Pos()) {
				return taintVal{}.addSource(TaintWallClock, call.Pos())
			}
			return taintVal{}
		case isGlobalRand(fn):
			if !f.pass.Allowed(call.Pos()) {
				return taintVal{}.addSource(TaintRand, call.Pos())
			}
			return taintVal{}
		case path == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values"):
			if !f.pass.Allowed(call.Pos()) {
				return taintVal{}.addSource(TaintMapOrder, call.Pos())
			}
			return taintVal{}
		case path == "reflect" && (fn.Name() == "Pointer" || fn.Name() == "UnsafePointer"):
			if !f.pass.Allowed(call.Pos()) {
				return taintVal{}.addSource(TaintPtrIdent, call.Pos())
			}
			return taintVal{}
		case isSortFunc(fn):
			// slices.Sorted and friends return sanitized values.
			return taintVal{}
		case path == "fmt":
			if t, ok := f.fmtPointerTaint(st, call); ok {
				return t
			}
		}
	}

	// Default: the result inherits the arguments' and receiver's taint.
	var t taintVal
	for _, a := range call.Args {
		t = t.union(f.exprTaint(st, a))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		t = t.union(f.exprTaint(st, sel.X))
	}
	return t
}

// seededRandConstructors are the math/rand entry points that do not
// touch the global source and therefore stay reproducible when given a
// fixed seed.
var seededRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// isGlobalRand reports whether fn is a package-level math/rand (or
// math/rand/v2) function that draws from the shared unseeded source.
func isGlobalRand(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	return (path == "math/rand" || path == "math/rand/v2") && sig != nil && sig.Recv() == nil && !seededRandConstructors[fn.Name()]
}

// fmtPointerTaint flags %p formatting as a pointer-identity source.
func (f *taintFlow) fmtPointerTaint(st *taintState, call *ast.CallExpr) (taintVal, bool) {
	if len(call.Args) == 0 {
		return taintVal{}, false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || !strings.Contains(lit.Value, "%p") {
		return taintVal{}, false
	}
	var t taintVal
	for _, a := range call.Args[1:] {
		t = t.union(f.exprTaint(st, a))
	}
	if !f.pass.Allowed(call.Pos()) {
		t = t.addSource(TaintPtrIdent, call.Pos())
	}
	return t, true
}

// rootObj resolves the base variable of an lvalue chain
// (x, x.f, x[i], (*x).f, ...), or nil when the base is not a simple
// variable.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// commutativeOp reports whether the compound-assignment operator is
// order-independent over integers.
func commutativeOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

// isIntegerExpr reports whether e's type is an integer.
func isIntegerExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isUintptr reports whether t is uintptr.
func isUintptr(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uintptr
}

// isPointerish reports whether t carries pointer identity.
func isPointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
