// Package plan implements the physical query plans of the WimPi OLAP
// engine. A plan is a tree of Node values; executing a node materializes
// a result table, in the operator-at-a-time style of column stores like
// MonetDB (the system used in the paper's TPC-H study).
//
// Plans are built by hand (package tpch, library users) or by the SQL
// front end (package sql), which lowers a statement onto these operators
// and optimizes the tree. The executor records all work in an
// exec.Counters so the hardware layer can simulate runtimes for the
// paper's ten comparison points.
package plan

import (
	"context"
	"fmt"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/spill"
)

// Catalog resolves table names to tables. *engine.DB implements Catalog.
type Catalog interface {
	// Table returns the named base table.
	Table(name string) (*colstore.Table, error)
}

// Context carries everything a plan needs to execute.
type Context struct {
	// Cat resolves base tables.
	Cat Catalog
	// Ctr accumulates the work performed.
	Ctr *exec.Counters
	// Workers bounds intra-query parallelism; values < 1 mean one.
	Workers int
	// MinParallelRows is the smallest input split across workers; below
	// it coordination overhead dominates. Values < 1 select
	// DefaultMinParallelRows.
	MinParallelRows int
	// MorselRows is the fixed morsel granularity for parallel operators.
	// Values < 1 select exec.DefaultMorselRows. Morsel boundaries depend
	// only on input size, never on Workers, so results are bit-identical
	// at every degree of parallelism.
	MorselRows int
	// LLCBytes is the last-level-cache budget the planner sizes
	// partitioned joins and aggregations against. Zero selects
	// DefaultLLCBytes; negative disables the partitioned paths entirely.
	// Like MorselRows it must never vary with Workers: the partitioned
	// vs. direct decision depends only on input cardinalities and this
	// budget, so results stay bit-identical at every degree of
	// parallelism, including cluster re-dispatch.
	LLCBytes int64
	// Trace, when non-nil, makes RunContext a traced run that collects an
	// operator span tree (see RunContext). A nil tracer is a valid no-op,
	// so operators call it unconditionally.
	Trace *obs.Tracer
	// Exec selects the execution style: vector (the default),
	// fused, or auto (see ExecMode). Like LLCBytes it may change which
	// code runs but never the result: the fused engine is byte-identical
	// to the vector engine at every worker count.
	Exec ExecMode
	// Ctx, when non-nil, cancels the query: kernels observe it at every
	// morsel boundary, the failing operator unwinds, and RunContext
	// returns the cancellation cause instead of a partial result.
	Ctx context.Context
	// Sched, when non-nil, is a pre-built scheduling handle (typically
	// pool-attached via exec.Pool.Attach) that overrides Ctx. The caller
	// that attached it must release it; execution only borrows it.
	Sched *exec.Sched
	// MemLimitBytes, when positive, bounds the query's observed live
	// intermediate memory. Exceeding it cancels the query with a
	// *MemLimitError at the next operator or morsel boundary — unless the
	// plan contains a spillable operator and SpillDir is set, in which
	// case the budget instead drives the spill scheduler and the query
	// degrades smoothly through charged disk I/O.
	MemLimitBytes int64
	// SpillDir, when non-empty, enables budget-bounded spilling: joins
	// whose state would exceed MemLimitBytes stream radix partitions
	// through a bounded spill area created under this directory. Empty
	// keeps the cancel-only budget behavior.
	SpillDir string
	// SpillAreaBytes, when positive, bounds the on-disk spill area
	// (spill.DefaultAreaLimit otherwise).
	SpillAreaBytes int64

	// spillOK records whether the compiled plan contains a spillable
	// operator; RunContext sets it before execution and clears it after.
	spillOK bool
	// spillArea is the query's lazily created spill area, closed (and its
	// files removed) by RunContext when the query finishes.
	spillArea *spill.Area
	// sideways holds the probe keys of every running hash join that
	// publishes them to a KeyFilter, while its build side executes.
	sideways map[*KeySet][]int64
}

// area returns the query's spill area, creating it on first use.
func (c *Context) area() (*spill.Area, error) {
	if c.spillArea == nil {
		a, err := spill.NewArea(c.SpillDir, c.SpillAreaBytes)
		if err != nil {
			return nil, err
		}
		c.spillArea = a
	}
	return c.spillArea, nil
}

// DefaultMinParallelRows is the default parallelism threshold.
const DefaultMinParallelRows = 1 << 15

// DefaultLLCBytes is the planning cache budget when Context.LLCBytes is
// zero: the Raspberry Pi 3B+'s 512 KiB shared L2, the smallest LLC among
// the paper's comparison points. Sizing partitions for the smallest
// cache keeps partitioned plans cache-resident on every profile.
const DefaultLLCBytes = 512 << 10

func (c *Context) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c *Context) parallelMinRows() int {
	if c.MinParallelRows < 1 {
		return DefaultMinParallelRows
	}
	return c.MinParallelRows
}

func (c *Context) morselRows() int {
	if c.MorselRows < 1 {
		return exec.DefaultMorselRows
	}
	return c.MorselRows
}

// llcBytes resolves the planning cache budget; 0 means the partitioned
// paths are disabled.
func (c *Context) llcBytes() int64 {
	switch {
	case c.LLCBytes < 0:
		return 0
	case c.LLCBytes == 0:
		return DefaultLLCBytes
	default:
		return c.LLCBytes
	}
}

// Node is one operator of a physical plan.
type Node interface {
	// Execute materializes the operator's result.
	Execute(ctx *Context) (*colstore.Table, error)
	// Explain renders the operator and its inputs, one per line, with the
	// given indentation depth.
	Explain(depth int) string
}

// Explain renders a whole plan tree.
func Explain(n Node) string { return n.Explain(0) }

func pad(depth int) string { return strings.Repeat("  ", depth) }

// Result is the outcome of one execution.
type Result struct {
	// Table is the query result.
	Table *colstore.Table
	// Counters is the total work.
	Counters exec.Counters
	// Root is the operator span tree of a traced run; nil otherwise.
	Root *obs.Span
}

// Run executes a plan against a catalog with fresh counters.
func Run(cat Catalog, workers int, n Node) (*Result, error) {
	return RunContext(&Context{Cat: cat, Workers: workers}, n)
}

// RunContext executes a plan under a caller-configured context (worker
// count, morsel granularity, LLC budget, exec mode, cancellation). A nil
// Ctr gets fresh counters. Fused and auto modes compile the plan first;
// the input tree is never mutated.
//
// A non-nil Trace asks for a traced run (EXPLAIN ANALYZE): every operator
// opens a span and the result carries the span tree. The tracer is
// rebuilt on the run's counters, inheriting only a pre-set Hook — that is
// how deterministic tests act at an exact pipeline stage (e.g. cancel the
// query the moment its sort begins). The table and counters are
// bit-identical to an untraced run's: tracing only snapshots the counters
// the kernels charge anyway, plus wall clocks that never feed back into
// execution.
func RunContext(ctx *Context, n Node) (*Result, error) {
	if ctx.Ctr == nil {
		ctx.Ctr = &exec.Counters{}
	}
	sched, release := ctx.attachSched()
	compiled := Compile(ctx, n)
	if ctx.Trace != nil {
		tr := obs.NewTracer(ctx.Ctr)
		tr.Hook = ctx.Trace.Hook
		ctx.Trace = tr
		compiled = instrument(compiled)
	}
	if ctx.SpillDir != "" && ctx.MemLimitBytes > 0 {
		ctx.spillOK = hasSpillableJoin(compiled)
	}
	t, err := compiled.Execute(ctx)
	ctx.spillOK = false
	if a := ctx.spillArea; a != nil {
		ctx.spillArea = nil
		if cerr := a.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil {
		// A cancellation that lands after the last kernel call must not
		// let a complete-looking result escape a query the caller already
		// gave up on.
		err = sched.Err()
	}
	release()
	if err != nil {
		return nil, err
	}
	return &Result{Table: t, Counters: *ctx.Ctr, Root: ctx.Trace.Root()}, nil
}

// MemLimitError is the cancellation cause when a query's observed live
// intermediate memory exceeds Context.MemLimitBytes.
type MemLimitError struct {
	// Limit is the configured budget in bytes.
	Limit int64
	// Observed is the live-byte high-water mark that tripped it.
	Observed int64
}

func (e *MemLimitError) Error() string {
	return fmt.Sprintf("plan: query exceeded memory budget: %d bytes live, limit %d", e.Observed, e.Limit)
}

// attachSched wires the query's scheduling handle onto its counters for
// the duration of one execution: kernels then observe cancellation (and
// pool membership) through the counters they already receive. The
// returned release detaches the handle before the counters are
// snapshotted into results — the handle is scheduling state, never part
// of the work profile. Handles built here (from Ctx/MemLimitBytes) are
// also released; a caller-provided Sched is only borrowed.
func (c *Context) attachSched() (*exec.Sched, func()) {
	s := c.Sched
	owned := false
	if s == nil {
		if c.Ctx == nil && c.MemLimitBytes <= 0 {
			return nil, func() {}
		}
		s = exec.NewSched(c.Ctx)
		c.Sched = s
		owned = true
	}
	c.Ctr.SetSched(s)
	return s, func() {
		c.Ctr.SetSched(nil)
		if owned {
			c.Sched = nil
			s.Release()
		}
	}
}

// observe records a node output in the live-memory high-water mark and
// enforces the query's memory budget: crossing it cancels the scheduling
// handle, so every kernel stops at its next morsel boundary and the
// query unwinds with the budget error as its cause.
func observe(ctx *Context, tables ...*colstore.Table) {
	var n int64
	for _, t := range tables {
		if t != nil {
			n += t.SizeBytes()
		}
	}
	cur := ctx.Ctr.PeakLiveBytes
	if n > cur {
		ctx.Ctr.ObserveLiveBytes(n)
	}
	// When the plan has a spillable operator, the budget is enforced by
	// the spill scheduler (planned, priced degradation) rather than by
	// cancellation.
	if lim := ctx.MemLimitBytes; lim > 0 && !ctx.spillOK && ctx.Ctr.PeakLiveBytes > lim {
		ctx.Sched.Cancel(&MemLimitError{Limit: lim, Observed: ctx.Ctr.PeakLiveBytes})
	}
}

// Scan reads a base table, optionally pushing down a projection and a
// filter predicate. With neither, the scan is a zero-copy view.
type Scan struct {
	// Table names the base table.
	Table string
	// Columns optionally projects the scan to the listed columns.
	Columns []string
	// Pred optionally filters rows before materialization.
	Pred exec.Pred
}

// open resolves the scan's table and projection, charging the base bytes
// it touches.
func (s *Scan) open(ctx *Context) (*colstore.Table, error) {
	t, err := ctx.Cat.Table(s.Table)
	if err == nil && len(s.Columns) > 0 {
		t, err = t.Project(s.Columns...)
	}
	if err != nil {
		return nil, err
	}
	ctx.Ctr.TouchedBaseBytes += t.SizeBytes()
	return t, nil
}

// Execute implements Node.
func (s *Scan) Execute(ctx *Context) (*colstore.Table, error) {
	t, err := s.open(ctx)
	if err != nil {
		return nil, err
	}
	if s.Pred == nil {
		observe(ctx, t)
		return t, nil
	}
	sel, err := parallelSel(ctx, t, s.Pred)
	if err != nil {
		return nil, err
	}
	out, err := gather(ctx, t, sel)
	if err != nil {
		return nil, err
	}
	observe(ctx, t, out)
	return out, nil
}

// Explain implements Node.
func (s *Scan) Explain(depth int) string {
	b := fmt.Sprintf("%sscan %s", pad(depth), s.Table)
	if len(s.Columns) > 0 {
		b += fmt.Sprintf(" [%s]", strings.Join(s.Columns, ", "))
	}
	if s.Pred != nil {
		b += " where " + s.Pred.String()
	}
	return b + "\n"
}

// Filter materializes the input rows satisfying Pred.
type Filter struct {
	// Input is the child operator.
	Input Node
	// Pred is the filter predicate.
	Pred exec.Pred
}

// Execute implements Node.
func (f *Filter) Execute(ctx *Context) (*colstore.Table, error) {
	in, err := f.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	sel, err := parallelSel(ctx, in, f.Pred)
	if err != nil {
		return nil, err
	}
	out, err := gather(ctx, in, sel)
	if err != nil {
		return nil, err
	}
	observe(ctx, in, out)
	return out, nil
}

// Explain implements Node.
func (f *Filter) Explain(depth int) string {
	return fmt.Sprintf("%sfilter %s\n%s", pad(depth), f.Pred, f.Input.Explain(depth+1))
}

// NamedExpr pairs an output column name with its defining expression.
type NamedExpr struct {
	// Name is the output column name.
	Name string
	// Expr computes the column.
	Expr exec.Expr
}

// Project evaluates expressions over the input, producing a table with
// exactly the listed columns. Plain column references are zero-copy.
type Project struct {
	// Input is the child operator.
	Input Node
	// Cols are the output columns.
	Cols []NamedExpr
}

// Execute implements Node.
func (p *Project) Execute(ctx *Context) (*colstore.Table, error) {
	in, err := p.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	schema := make(colstore.Schema, len(p.Cols))
	cols := make([]colstore.Column, len(p.Cols))
	for i, ne := range p.Cols {
		c, err := evalExprParallel(ctx, in, ne.Expr)
		if err != nil {
			return nil, fmt.Errorf("plan: project %s: %w", ne.Name, err)
		}
		schema[i] = colstore.Field{Name: ne.Name, Type: c.Type()}
		cols[i] = c
	}
	out, err := colstore.NewTable("", schema, cols)
	if err != nil {
		return nil, err
	}
	observe(ctx, in, out)
	return out, nil
}

// Explain implements Node.
func (p *Project) Explain(depth int) string {
	parts := make([]string, len(p.Cols))
	for i, ne := range p.Cols {
		parts[i] = fmt.Sprintf("%s=%s", ne.Name, ne.Expr)
	}
	return fmt.Sprintf("%sproject %s\n%s", pad(depth), strings.Join(parts, ", "), p.Input.Explain(depth+1))
}

// Rename relabels columns (for example the second nation table in Q7).
type Rename struct {
	// Input is the child operator.
	Input Node
	// Pairs lists {from, to} column name pairs.
	Pairs [][2]string
}

// Execute implements Node.
func (r *Rename) Execute(ctx *Context) (*colstore.Table, error) {
	in, err := r.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	schema := make(colstore.Schema, len(in.Schema))
	copy(schema, in.Schema)
	for _, pr := range r.Pairs {
		i := in.Schema.Index(pr[0])
		if i < 0 {
			return nil, fmt.Errorf("plan: rename: no column %q", pr[0])
		}
		schema[i].Name = pr[1]
	}
	return colstore.NewTable(in.Name, schema, in.Cols)
}

// Explain implements Node.
func (r *Rename) Explain(depth int) string {
	parts := make([]string, len(r.Pairs))
	for i, pr := range r.Pairs {
		parts[i] = pr[0] + "->" + pr[1]
	}
	return fmt.Sprintf("%srename %s\n%s", pad(depth), strings.Join(parts, ", "), r.Input.Explain(depth+1))
}

// Limit returns the first N rows of its input.
type Limit struct {
	// Input is the child operator.
	Input Node
	// N is the row budget.
	N int
}

// Execute implements Node.
func (l *Limit) Execute(ctx *Context) (*colstore.Table, error) {
	in, err := l.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	if l.N < in.NumRows() {
		return in.Slice(0, l.N), nil
	}
	return in, nil
}

// Explain implements Node.
func (l *Limit) Explain(depth int) string {
	return fmt.Sprintf("%slimit %d\n%s", pad(depth), l.N, l.Input.Explain(depth+1))
}

// OrderBy sorts its input; with N > 0 it keeps only the first N rows.
type OrderBy struct {
	// Input is the child operator.
	Input Node
	// Keys are the sort keys, most significant first.
	Keys []exec.SortKey
	// N, when positive, limits the output (ORDER BY ... LIMIT N).
	N int
}

// Execute implements Node.
func (o *OrderBy) Execute(ctx *Context) (*colstore.Table, error) {
	in, err := o.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	var out *colstore.Table
	if o.N > 0 {
		out, err = exec.TopNParallel(in, o.Keys, o.N, ctx.workers(), ctx.morselRows(), ctx.Ctr)
	} else {
		out, err = exec.SortTableParallel(in, o.Keys, ctx.workers(), ctx.morselRows(), ctx.Ctr)
	}
	if err != nil {
		return nil, err
	}
	observe(ctx, in, out)
	return out, nil
}

// Explain implements Node.
func (o *OrderBy) Explain(depth int) string {
	parts := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		parts[i] = k.Column
		if k.Desc {
			parts[i] += " desc"
		}
	}
	s := fmt.Sprintf("%sorder by %s", pad(depth), strings.Join(parts, ", "))
	if o.N > 0 {
		s += fmt.Sprintf(" limit %d", o.N)
	}
	return s + "\n" + o.Input.Explain(depth+1)
}

// gather materializes t's rows named by sel and charges the write. When
// tracing, the materialization gets its own child span — it is usually
// the memory-bandwidth-bound part of a filter or join.
func gather(ctx *Context, t *colstore.Table, sel []int32) (*colstore.Table, error) {
	sp := ctx.Trace.Begin("gather", fmt.Sprintf("gather %d rows x %d cols", len(sel), t.NumCols()))
	out, err := exec.GatherTable(t, sel, ctx.workers(), ctx.morselRows(), ctx.Ctr)
	if err != nil {
		ctx.Trace.EndErr(sp)
		return nil, err
	}
	ctx.Ctr.TuplesMaterialized += int64(len(sel))
	ctx.Ctr.BytesMaterialized += out.SizeBytes()
	ctx.Ctr.SeqBytes += out.SizeBytes()
	ctx.Ctr.RandomAccesses += int64(len(sel)) * int64(t.NumCols())
	ctx.Trace.End(sp, int64(len(sel)), out.SizeBytes())
	return out, nil
}
