package plan

// Fused pipeline compilation. Compile walks a plan tree, breaks it at
// pipeline breakers (join builds, group-by, sort), and rewrites each
// pipeline — a select→project→probe chain feeding a sink — into a Fused
// node that executes the whole chain over selection vectors
// (exec/fused.Vectors) against the driver table, materializing columns
// exactly once, at the sink. Results are byte-identical to the vector
// engine at every worker count: filters, probe kernels, and the
// aggregation/sort sinks are the same deterministic kernels, fed the
// same values in the same order; only the materialization between them
// is gone.

import (
	"fmt"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/exec/fused"
)

// ExecMode selects the engine's execution style.
type ExecMode string

// The execution modes.
const (
	// ExecVector is classic operator-at-a-time execution: every operator
	// fully materializes its result (the engine's original behavior, and
	// the default).
	ExecVector ExecMode = "vector"
	// ExecFused compiles every supported pipeline into a fused kernel.
	ExecFused ExecMode = "fused"
)

// ParseExecMode parses a -exec flag value; the empty string selects
// vector execution.
func ParseExecMode(s string) (ExecMode, error) {
	switch ExecMode(s) {
	case "", ExecVector:
		return ExecVector, nil
	case ExecFused:
		return ExecFused, nil
	default:
		return "", fmt.Errorf("plan: unknown exec mode %q (want vector or fused)", s)
	}
}

// Compile rewrites a plan for the context's execution mode. Vector mode
// (and the zero value) returns the plan unchanged; fused mode rewrites
// each supported pipeline into a Fused node. The input tree is
// never mutated — rewritten paths are copies — so shared plan values
// stay reusable under any mode.
func Compile(ctx *Context, n Node) Node {
	if ctx.Exec == "" || ctx.Exec == ExecVector {
		return n
	}
	return compileNode(ctx, n)
}

// compileNode recursively rewrites pipelines. Unknown node types (for
// example the SQL layer's CTE and scalar-subquery nodes) are returned
// unchanged — their internals execute exactly as before.
func compileNode(ctx *Context, n Node) Node {
	switch v := n.(type) {
	case *GroupBy:
		if f, ok := tryFuse(ctx, v.Input, v, nil); ok {
			return f
		}
		c := *v
		c.Input = compileNode(ctx, v.Input)
		return &c
	case *OrderBy:
		if f, ok := tryFuse(ctx, v.Input, nil, v); ok {
			return f
		}
		c := *v
		c.Input = compileNode(ctx, v.Input)
		return &c
	case *HashJoin:
		if f, ok := tryFuse(ctx, n, nil, nil); ok {
			return f
		}
		c := *v
		c.Build = compileNode(ctx, v.Build)
		c.Probe = compileNode(ctx, v.Probe)
		return &c
	case *Filter:
		if f, ok := tryFuse(ctx, n, nil, nil); ok {
			return f
		}
		c := *v
		c.Input = compileNode(ctx, v.Input)
		return &c
	case *Project:
		if f, ok := tryFuse(ctx, n, nil, nil); ok {
			return f
		}
		c := *v
		c.Input = compileNode(ctx, v.Input)
		return &c
	case *Limit:
		c := *v
		c.Input = compileNode(ctx, v.Input)
		return &c
	case *KeyFilter:
		c := *v
		c.Input = compileNode(ctx, v.Input)
		return &c
	case *Scan:
		return v
	case *Fused:
		return n // already compiled
	default:
		return n
	}
}

// fusedStage is one compiled pipeline step between the driver and the
// sink.
type fusedStage interface{ stageName() string }

type filterStage struct{ pred exec.Pred }

func (filterStage) stageName() string { return "filter" }

type projectStage struct{ cols []NamedExpr }

func (projectStage) stageName() string { return "project" }

// probeStage is a hash-join probe whose build side is a pipeline breaker
// executed as a regular (recursively compiled) subplan.
type probeStage struct {
	build                Node
	buildKeys, probeKeys []string
	kind                 JoinKind
	countAs              string
	sideways             *KeySet
}

func (probeStage) stageName() string { return "probe" }

// Fused executes one compiled pipeline: a driver (base-table scan or any
// generic subplan), a chain of filter/project/probe stages
// carried on selection vectors, and a sink (group-by, sort, or plain
// materialization).
type Fused struct {
	scan   *Scan // base-table driver (nil when input drives the pipeline)
	input  Node  // generic driver (nil when scan is set)
	stages []fusedStage
	group  *GroupBy // group-by sink (aggregation over the survivors)
	order  *OrderBy // sort sink
	// chain is the original operator chain (with inner pipelines
	// compiled); it only renders EXPLAIN.
	chain Node
}

// Explain implements Node. The first line carries the pipeline shape —
// it doubles as the EXPLAIN ANALYZE span label — and the operator chain
// it replaces follows, indented.
func (f *Fused) Explain(depth int) string {
	return fmt.Sprintf("%sfused pipeline %s\n%s", pad(depth), f.shape(), f.chain.Explain(depth+1))
}

// tryFuse attempts to compile the chain rooted at top (the sink's input,
// or the whole chain for a plain sink) into a Fused node. It reports
// false when the chain offers nothing to fuse, leaving the caller to
// recurse normally.
func tryFuse(ctx *Context, top Node, group *GroupBy, order *OrderBy) (Node, bool) {
	scan, input, stages, ok := extractChain(ctx, top)
	if !ok {
		return nil, false
	}
	// Fusing pays off only when the chain would otherwise materialize an
	// intermediate: a filtering scan, or at least one chain stage.
	if len(stages) == 0 && (scan == nil || scan.Pred == nil) {
		return nil, false
	}
	if group != nil {
		// Aggregate arguments must be analyzable so the sink can
		// materialize exactly the referenced columns.
		for _, spec := range group.Aggs {
			if spec.Arg != nil {
				if _, ok := exprCols(spec.Arg); !ok {
					return nil, false
				}
			}
		}
	}
	return &Fused{scan: scan, input: input, stages: stages, group: group, order: order,
		chain: rebuildChain(scan, input, stages, group, order)}, true
}

// extractChain walks down from the sink input, collecting fusable stages
// until it reaches a base-table scan (the ideal driver) or a node it
// cannot fuse through (which becomes a generic, recursively compiled
// driver). Stages come back in execution order (driver first).
func extractChain(ctx *Context, n Node) (scan *Scan, input Node, stages []fusedStage, ok bool) {
	var rev []fusedStage
	cur := n
	for {
		//lint:allow exhaustive -- the default is the fusion frontier: any other node becomes the generic, recursively compiled driver
		switch v := cur.(type) {
		case *Scan:
			scan = v
			return scan, nil, reverseStages(rev), true
		case *Filter:
			if _, ok := PredCols(v.Pred); !ok {
				c := *v
				c.Input = compileNode(ctx, v.Input)
				return nil, &c, reverseStages(rev), true
			}
			rev = append(rev, filterStage{pred: v.Pred})
			cur = v.Input
		case *Project:
			supported := true
			for _, ne := range v.Cols {
				if _, ok := exprCols(ne.Expr); !ok {
					supported = false
					break
				}
			}
			if !supported {
				c := *v
				c.Input = compileNode(ctx, v.Input)
				return nil, &c, reverseStages(rev), true
			}
			rev = append(rev, projectStage{cols: v.Cols})
			cur = v.Input
		case *HashJoin:
			if len(v.BuildKeys) == 0 || len(v.BuildKeys) > 2 || len(v.BuildKeys) != len(v.ProbeKeys) {
				c := *v
				c.Build = compileNode(ctx, v.Build)
				c.Probe = compileNode(ctx, v.Probe)
				return nil, &c, reverseStages(rev), true
			}
			rev = append(rev, probeStage{
				build:     compileNode(ctx, v.Build),
				buildKeys: v.BuildKeys,
				probeKeys: v.ProbeKeys,
				kind:      v.Kind,
				countAs:   v.CountAs,
				sideways:  v.Sideways,
			})
			cur = v.Probe
		default:
			// Unknown node (CTE, limit, nested sink): let it
			// drive the pipeline as a regular subplan.
			input = compileNode(ctx, cur)
			return nil, input, reverseStages(rev), true
		}
	}
}

func reverseStages(rev []fusedStage) []fusedStage {
	out := make([]fusedStage, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}

// rebuildChain reconstructs the original operator chain (driver, stages,
// sink) with compiled build subtrees, for EXPLAIN.
func rebuildChain(scan *Scan, input Node, stages []fusedStage, group *GroupBy, order *OrderBy) Node {
	var n Node
	if scan != nil {
		n = scan
	} else {
		n = input
	}
	for _, st := range stages {
		switch s := st.(type) {
		case filterStage:
			n = &Filter{Input: n, Pred: s.pred}
		case projectStage:
			n = &Project{Input: n, Cols: s.cols}
		case probeStage:
			n = &HashJoin{Build: s.build, Probe: n, BuildKeys: s.buildKeys, ProbeKeys: s.probeKeys,
				Kind: s.kind, CountAs: s.countAs, Sideways: s.sideways}
		}
	}
	switch {
	case group != nil:
		g := *group
		g.Input = n
		return &g
	case order != nil:
		o := *order
		o.Input = n
		return &o
	default:
		return n
	}
}

// Execute implements Node. The fused-pipeline span itself comes from
// Context.Run (labeled by Explain's first line); the pipeline opens
// child spans for its phases (join-build, fused-probe, gather).
func (f *Fused) Execute(ctx *Context) (*colstore.Table, error) {
	st, err := f.start(ctx)
	if err != nil {
		return nil, err
	}
	for _, stage := range f.stages {
		var err error
		switch s := stage.(type) {
		case filterStage:
			err = st.applyFilter(s.pred)
		case projectStage:
			err = st.applyProject(s.cols)
		case probeStage:
			err = st.applyProbe(&s)
		}
		if err != nil {
			return nil, err
		}
	}
	switch {
	case f.group != nil:
		return st.sinkGroup(f.group)
	case f.order != nil:
		return st.sinkOrder(f.order)
	default:
		return st.sinkPlain()
	}
}

// shape summarizes the pipeline as driver→stages→sink.
func (f *Fused) shape() string {
	parts := make([]string, 0, len(f.stages)+2)
	if f.scan != nil {
		parts = append(parts, "scan "+f.scan.Table)
	} else {
		parts = append(parts, "input")
	}
	for _, st := range f.stages {
		parts = append(parts, st.stageName())
	}
	switch {
	case f.group != nil:
		parts = append(parts, "group-by")
	case f.order != nil:
		parts = append(parts, "sort")
	default:
		parts = append(parts, "materialize")
	}
	return strings.Join(parts, "→")
}

// start resolves the driver and evaluates the scan predicate (the
// pipeline's first selection), leaving the state dense when there is
// none.
func (f *Fused) start(ctx *Context) (*fusedState, error) {
	var driver *colstore.Table
	var err error
	if f.scan != nil {
		driver, err = f.scan.open(ctx)
	} else {
		driver, err = ctx.Run(f.input)
	}
	if err != nil {
		return nil, err
	}
	observe(ctx, driver)
	st := &fusedState{ctx: ctx, driver: driver, v: fused.NewVectors(driver.NumRows())}
	st.scope = make([]binding, driver.NumCols())
	for i, fld := range driver.Schema {
		st.scope[i] = binding{name: fld.Name, kind: bindDriver, col: driver.Cols[i]}
	}
	if f.scan != nil && f.scan.Pred != nil {
		sel, err := parallelSel(ctx, driver, f.scan.Pred)
		if err != nil {
			return nil, err
		}
		st.v.SetSel(sel)
	}
	return st, nil
}

// bindKind says where a scope column's values live.
type bindKind uint8

const (
	// bindDriver is a driver-table column, indexed by the selection.
	bindDriver bindKind = iota
	// bindAux is a probed build-table column, indexed by an aux vector.
	bindAux
	// bindCnt is a left-count column, already aligned with the selection.
	bindCnt
	// bindExpr is an unevaluated projection expression over earlier
	// bindings.
	bindExpr
)

// binding maps a scope column name to its storage.
type binding struct {
	name string
	kind bindKind
	col  colstore.Column // driver/aux: the underlying column
	aux  int             // aux/cnt: index into Vectors.Aux / Vectors.Cnt
	expr exec.Expr       // expr: the defining expression
	deps []binding       // expr: bindings referenced, snapshotted at definition
}

// fusedState is the execution state of one fused pipeline run.
type fusedState struct {
	ctx    *Context
	driver *colstore.Table
	v      *fused.Vectors
	scope  []binding
}

func (st *fusedState) resolve(name string) (binding, error) {
	for _, b := range st.scope {
		if b.name == name {
			return b, nil
		}
	}
	return binding{}, fmt.Errorf("plan: fused pipeline: no column %q in scope", name)
}

func (st *fusedState) resolveAll(names []string) ([]binding, error) {
	out := make([]binding, len(names))
	for i, n := range names {
		b, err := st.resolve(n)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// applyFilter narrows the pipeline by a predicate. Driver-only
// predicates (before any probe) evaluate straight through the selection
// vector; anything touching probed or computed columns evaluates over a
// compact mini-table of just the referenced columns.
func (st *fusedState) applyFilter(pred exec.Pred) error {
	names, _ := PredCols(pred) // validated at compile time
	bs, err := st.resolveAll(names)
	if err != nil {
		return err
	}
	driverOnly := len(st.v.Aux) == 0 && len(st.v.Cnt) == 0
	for _, b := range bs {
		if b.kind != bindDriver {
			driverOnly = false
			break
		}
	}
	if driverOnly {
		view, err := bindingView(bs)
		if err != nil {
			return err
		}
		if st.v.Dense() {
			sel, err := parallelSel(st.ctx, view, pred)
			if err != nil {
				return err
			}
			st.v.SetSel(sel)
			return nil
		}
		sel, err := narrowSelParallel(st.ctx, view, pred, st.v.Sel)
		if err != nil {
			return err
		}
		st.v.SetSel(sel)
		return nil
	}
	mini, err := st.materializeTable(bs)
	if err != nil {
		return err
	}
	keep, err := parallelSel(st.ctx, mini, pred)
	if err != nil {
		return err
	}
	st.v.Narrow(keep, st.ctx.Ctr)
	return nil
}

// bindingView assembles a zero-copy driver-length table over driver
// bindings, named per the current scope.
func bindingView(bs []binding) (*colstore.Table, error) {
	schema := make(colstore.Schema, len(bs))
	cols := make([]colstore.Column, len(bs))
	for i, b := range bs {
		schema[i] = colstore.Field{Name: b.name, Type: b.col.Type()}
		cols[i] = b.col
	}
	return colstore.NewTable("", schema, cols)
}

// narrowSelParallel narrows an explicit selection by a predicate through
// the morsel scheduler. Chunk boundaries depend only on the selection
// length, and narrowed chunks concatenate in chunk order, so the result
// is identical at every worker count.
func narrowSelParallel(ctx *Context, t *colstore.Table, pred exec.Pred, sel []int32) ([]int32, error) {
	n := len(sel)
	if exec.Serial(ctx.Workers, n, ctx.MorselRows) {
		return pred.Sel(t, sel, ctx.Ctr)
	}
	bound, err := exec.Bind(pred, t, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	nm := exec.NumMorsels(n, ctx.morselRows())
	outs := make([][]int32, nm)
	err = exec.RunMorsels(ctx.workers(), n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
		s, err := bound(t, sel[lo:hi], ctr)
		if err != nil {
			return err
		}
		outs[m] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, _ := exec.ConcatMatches(outs) // at most one id per row of sel
	ctx.Ctr.MergeBytes += int64(len(out)) * 4
	return out, nil
}

// applyProject rewrites the scope: plain column references re-bind under
// their output name, computed expressions stay lazy (bindExpr) and
// evaluate once, at sink cardinality.
func (st *fusedState) applyProject(cols []NamedExpr) error {
	newScope := make([]binding, 0, len(cols))
	for _, ne := range cols {
		if c, ok := ne.Expr.(exec.Col); ok {
			b, err := st.resolve(c.Name)
			if err != nil {
				return err
			}
			b.name = ne.Name
			newScope = append(newScope, b)
			continue
		}
		names, _ := exprCols(ne.Expr) // validated at compile time
		deps, err := st.resolveAll(names)
		if err != nil {
			return err
		}
		newScope = append(newScope, binding{name: ne.Name, kind: bindExpr, expr: ne.Expr, deps: deps})
	}
	st.scope = newScope
	return nil
}

// applyProbe is the in-pipeline half of a hash join: the build side is a
// pipeline breaker executed as a normal subplan, then the current
// survivors probe it without materializing the probe side. The build
// side comes from the same buildJoin as the vector path's, with the
// probe cardinality taken from the live selection — which equals the
// vector path's materialized probe row count — so both engines always
// pick the same physical join. The survivors are the probe side, so a
// join with a KeyFilter extracts their keys before its build side runs.
func (st *fusedState) applyProbe(ps *probeStage) error {
	ctx := st.ctx
	w, mr := ctx.workers(), ctx.morselRows()
	var pk []int64
	var build *colstore.Table
	var err error
	if ps.sideways != nil {
		if pk, err = st.probeKeyVec(ps.probeKeys); err != nil {
			return err
		}
		build, err = ctx.executeBuild(ps.build, ps.sideways, pk, nil, true)
	} else {
		build, err = ctx.Run(ps.build)
	}
	if err != nil {
		return err
	}
	probeRows := st.v.Len()
	jp, err := ctx.buildPhase(build, ps.buildKeys, probeRows)
	if err != nil {
		return err
	}

	psp := ctx.Trace.Begin("fused-probe",
		fmt.Sprintf("%s probe [%s], %d rows in flight", ps.kind, strings.Join(ps.probeKeys, ","), probeRows))
	if ps.sideways == nil {
		if pk, err = st.probeKeyVec(ps.probeKeys); err != nil {
			ctx.Trace.EndErr(psp)
			return err
		}
	}
	switch ps.kind {
	case Inner:
		bi, pi, err := jp.InnerJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			ctx.Trace.EndErr(psp)
			return err
		}
		for _, fld := range build.Schema {
			if _, err := st.resolve(fld.Name); err == nil {
				ctx.Trace.EndErr(psp)
				return fmt.Errorf("duplicate column %q after join; rename one side", fld.Name)
			}
		}
		st.v.ExpandInner(pi, bi, ctx.Ctr)
		auxIdx := len(st.v.Aux) - 1
		for i, fld := range build.Schema {
			st.scope = append(st.scope, binding{name: fld.Name, kind: bindAux, col: build.Cols[i], aux: auxIdx})
		}
	case Semi:
		sel, err := jp.SemiJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			ctx.Trace.EndErr(psp)
			return err
		}
		st.v.Narrow(sel, ctx.Ctr)
	case Anti:
		sel, err := jp.AntiJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			ctx.Trace.EndErr(psp)
			return err
		}
		st.v.Narrow(sel, ctx.Ctr)
	case LeftCount:
		counts, err := jp.CountPerProbe(pk, w, mr, ctx.Ctr)
		if err != nil {
			ctx.Trace.EndErr(psp)
			return err
		}
		st.v.AppendCounts(counts, ctx.Ctr)
		name := ps.countAs
		if name == "" {
			name = "match_count"
		}
		st.scope = append(st.scope, binding{name: name, kind: bindCnt, aux: len(st.v.Cnt) - 1})
	default:
		ctx.Trace.EndErr(psp)
		return fmt.Errorf("plan: unknown join kind %d", ps.kind)
	}
	ctx.Trace.End(psp, int64(st.v.Len()), 0)
	return nil
}

// probeKeyVec extracts the probe-side join keys for the current
// survivors directly from the bound columns — the values the vector path
// would read from its materialized probe table, without the
// materialization.
func (st *fusedState) probeKeyVec(names []string) ([]int64, error) {
	one := func(name string) ([]int64, error) {
		b, err := st.resolve(name)
		if err != nil {
			return nil, err
		}
		switch b.kind {
		case bindDriver:
			return exec.KeysFromColumn(b.col, st.v.Sel, st.ctx.Ctr)
		case bindAux:
			return exec.KeysFromColumn(b.col, st.v.Aux[b.aux], st.ctx.Ctr)
		default:
			col, err := st.materializeBinding(b)
			if err != nil {
				return nil, err
			}
			return exec.KeysFromColumn(col, nil, st.ctx.Ctr)
		}
	}
	switch len(names) {
	case 1:
		return one(names[0])
	case 2:
		hi, err := one(names[0])
		if err != nil {
			return nil, err
		}
		lo, err := one(names[1])
		if err != nil {
			return nil, err
		}
		return exec.CombineKeys(hi, lo, 31, st.ctx.Ctr)
	default:
		return nil, fmt.Errorf("plan: joins support one or two key columns, got %d", len(names))
	}
}

// materializeBinding produces one column of length Len() for a binding.
// Prefer materializeTable for several bindings — it batches the gather.
func (st *fusedState) materializeBinding(b binding) (colstore.Column, error) {
	t, err := st.materializeTable([]binding{b})
	if err != nil {
		return nil, err
	}
	return t.Cols[0], nil
}

// materializeTable gathers the given bindings into a table aligned with
// the current survivors — the single materialization point of a fused
// pipeline. Driver columns (and each probed build table's columns)
// gather as one batch, charged exactly like the vector engine's gather;
// count columns are already aligned; computed expressions evaluate here,
// at survivor cardinality, over their materialized dependencies.
func (st *fusedState) materializeTable(bs []binding) (*colstore.Table, error) {
	ctx := st.ctx
	cols := make([]colstore.Column, len(bs))

	// Batch the gathers per source: driver bindings share v.Sel, each
	// aux group shares its aux vector.
	type group struct {
		idx []int
		sel []int32
	}
	var driverG group
	auxG := map[int]*group{}
	for i, b := range bs {
		switch b.kind {
		case bindDriver:
			driverG.idx = append(driverG.idx, i)
		case bindAux:
			g := auxG[b.aux]
			if g == nil {
				g = &group{sel: st.v.Aux[b.aux]}
				auxG[b.aux] = g
			}
			g.idx = append(g.idx, i)
		case bindCnt:
			cols[i] = &colstore.Int64s{V: st.v.Cnt[b.aux]}
		case bindExpr:
			c, err := st.evalComputed(b)
			if err != nil {
				return nil, err
			}
			cols[i] = c
		}
	}
	gatherGroup := func(g *group, sel []int32) error {
		if len(g.idx) == 0 {
			return nil
		}
		sub := make([]binding, len(g.idx))
		for j, i := range g.idx {
			sub[j] = bs[i]
		}
		view, err := bindingView(sub)
		if err != nil {
			return err
		}
		var out *colstore.Table
		if sel == nil {
			out = view // dense: zero-copy, like an unfiltered scan
		} else {
			out, err = gather(ctx, view, sel, true)
			if err != nil {
				return err
			}
		}
		for j, i := range g.idx {
			cols[i] = out.Cols[j]
		}
		return nil
	}
	if err := gatherGroup(&driverG, st.v.Sel); err != nil {
		return nil, err
	}
	// Aux groups materialize in aux order for deterministic charging.
	for aux := 0; aux < len(st.v.Aux); aux++ {
		if g, ok := auxG[aux]; ok {
			if err := gatherGroup(g, g.sel); err != nil {
				return nil, err
			}
		}
	}

	schema := make(colstore.Schema, len(bs))
	for i, b := range bs {
		schema[i] = colstore.Field{Name: b.name, Type: cols[i].Type()}
	}
	return colstore.NewTable("", schema, cols)
}

// evalComputed materializes a lazy projection expression at survivor
// cardinality: its dependencies gather first, then the expression kernel
// runs morsel-parallel over them. Expression kernels are elementwise, so
// evaluating over the gathered survivors is bit-identical to the vector
// engine's evaluate-then-gather.
func (st *fusedState) evalComputed(b binding) (colstore.Column, error) {
	dep, err := st.materializeTable(b.deps)
	if err != nil {
		return nil, err
	}
	return evalExprParallel(st.ctx, dep, b.expr)
}

// sinkGroup feeds the survivors to the group-by sink through a narrow
// table holding only the key columns and aggregate inputs, then runs the
// vector engine's aggregation verbatim — same rows, same order, same
// morsel boundaries, hence bit-identical groups and sums.
func (st *fusedState) sinkGroup(g *GroupBy) (*colstore.Table, error) {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, k := range g.Keys {
		add(k)
	}
	for _, spec := range g.Aggs {
		if spec.Arg != nil {
			cs, _ := exprCols(spec.Arg) // validated at compile time
			for _, c := range cs {
				add(c)
			}
		}
	}
	var bs []binding
	if len(names) == 0 {
		// Pure COUNT(*): any column carries the cardinality.
		bs = st.scope[:1]
	} else {
		// Keep scope order so charging is deterministic.
		for _, b := range st.scope {
			if seen[b.name] {
				bs = append(bs, b)
				seen[b.name] = false
			}
		}
		for _, n := range names {
			if seen[n] {
				return nil, fmt.Errorf("plan: fused pipeline: no column %q in scope", n)
			}
		}
	}
	in, err := st.materializeTable(bs)
	if err != nil {
		return nil, err
	}
	return g.aggregate(st.ctx, in)
}

// sinkOrder materializes the full scope (the exact table the vector
// chain would have produced) and runs the shared sort kernels.
func (st *fusedState) sinkOrder(o *OrderBy) (*colstore.Table, error) {
	in, err := st.materializeTable(st.scope)
	if err != nil {
		return nil, err
	}
	return o.sort(st.ctx, in)
}

// sinkPlain materializes the full scope: the pipeline's output feeds a
// pipeline breaker (join build, limit, CTE) or is the query
// result.
func (st *fusedState) sinkPlain() (*colstore.Table, error) {
	out, err := st.materializeTable(st.scope)
	if err != nil {
		return nil, err
	}
	observe(st.ctx, out)
	return out, nil
}
