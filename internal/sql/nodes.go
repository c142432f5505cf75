package sql

import (
	"fmt"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/plan"
)

// memoNode executes its input once per query run and serves the
// materialized table to every consumer — the plan-layer form of a WITH
// common table expression referenced more than once. The table is kept
// on the run's plan.Context (plan.Context.Memo), never in the node, so
// one planned tree can run any number of times, concurrently too.
type memoNode struct {
	name  string
	inner plan.Node
	// shared marks a CTE the statement references more than once.
	shared bool
}

// Execute implements plan.Node.
func (m *memoNode) Execute(ctx *plan.Context) (*colstore.Table, error) {
	return ctx.Memo(m, func() (*colstore.Table, error) { return ctx.Run(m.inner) })
}

// Explain implements plan.Node.
func (m *memoNode) Explain(depth int) string {
	pad := strings.Repeat("  ", depth)
	return pad + "cte " + m.name + " (memoized)\n" + m.inner.Explain(depth+1)
}

// Children implements plan.ChildNodes, so plan-tree walks (notably the
// spill-capability scan behind memory budgets) see through the memo.
func (m *memoNode) Children() []plan.Node { return []plan.Node{m.inner} }

// scalarPlan is one scalar subquery: a plan whose result is a single
// row with the scalar in its only column.
type scalarPlan struct {
	node plan.Node
}

// scalarOf extracts the single numeric value of a one-row result.
// Counts (Int64s) convert exactly to float64.
func scalarOf(t *colstore.Table) (float64, error) {
	if t.NumRows() != 1 || t.NumCols() != 1 {
		return 0, fmt.Errorf("sql: scalar subquery returned %dx%d, want 1x1", t.NumRows(), t.NumCols())
	}
	switch c := t.Cols[0].(type) {
	case *colstore.Float64s:
		return c.V[0], nil
	case *colstore.Int64s:
		return float64(c.V[0]), nil
	}
	return 0, fmt.Errorf("sql: scalar subquery column is not numeric")
}

// deferredNode handles scalar subqueries: each run executes the subquery
// plans first, folds their values into the enclosing block's comparison
// predicates as constants, and only then builds and runs the block's
// plan. The block is built per run and kept by nobody, so the node's
// EXPLAIN shows the subqueries only.
type deferredNode struct {
	name    string
	scalars []scalarPlan
	build   func(vals []float64) (plan.Node, error)
}

// Execute implements plan.Node.
func (d *deferredNode) Execute(ctx *plan.Context) (*colstore.Table, error) {
	vals := make([]float64, len(d.scalars))
	for i := range d.scalars {
		t, err := ctx.Run(d.scalars[i].node)
		if err != nil {
			return nil, err
		}
		v, err := scalarOf(t)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	n, err := d.build(vals)
	if err != nil {
		return nil, err
	}
	return ctx.Run(n)
}

// Children implements plan.ChildNodes: the scalar subquery plans, then
// the block lowered from placeholder scalar values. Lowering runs no
// query, and which joins the block holds does not depend on the values,
// so capability scans (e.g. spill) see the joins a run will build. A
// block that fails to lower is left out, and its joins stay unseen.
func (d *deferredNode) Children() []plan.Node {
	out := make([]plan.Node, len(d.scalars), len(d.scalars)+1)
	for i := range d.scalars {
		out[i] = d.scalars[i].node
	}
	if n, err := d.build(make([]float64, len(d.scalars))); err == nil {
		out = append(out, n)
	}
	return out
}

// Explain implements plan.Node.
func (d *deferredNode) Explain(depth int) string {
	pad := strings.Repeat("  ", depth)
	out := pad + d.name + "\n"
	for i := range d.scalars {
		out += pad + fmt.Sprintf("  scalar[%d]:\n", i) + d.scalars[i].node.Explain(depth+2)
	}
	return out
}
