package sql

import (
	"fmt"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/plan"
)

// memoNode executes its input once per query run and serves the
// materialized table to every consumer — the plan-layer form of a WITH
// common table expression referenced more than once. Plan trees execute
// single-threaded at this level (parallelism lives inside operators),
// so no locking is needed.
type memoNode struct {
	name  string
	inner plan.Node
	t     *colstore.Table
	// shared marks a CTE the statement references more than once.
	shared bool
}

// Execute implements plan.Node.
func (m *memoNode) Execute(ctx *plan.Context) (*colstore.Table, error) {
	if m.t == nil {
		t, err := m.inner.Execute(ctx)
		if err != nil {
			return nil, err
		}
		m.t = t
	}
	return m.t, nil
}

// Explain implements plan.Node.
func (m *memoNode) Explain(depth int) string {
	pad := strings.Repeat("  ", depth)
	return pad + "cte " + m.name + " (memoized)\n" + m.inner.Explain(depth+1)
}

// Children implements plan.ChildNodes, so plan-tree walks (notably the
// spill-capability scan behind memory budgets) see through the memo.
func (m *memoNode) Children() []plan.Node { return []plan.Node{m.inner} }

// RewriteChildren implements plan.ChildRewriter. A table the memo already
// holds is kept: the copy is the same CTE, run at most once.
func (m *memoNode) RewriteChildren(rewrite func(plan.Node) plan.Node) plan.Node {
	return &memoNode{name: m.name, inner: rewrite(m.inner), t: m.t, shared: m.shared}
}

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

// deferredNode handles scalar subqueries: it executes the subquery
// plans first, folds their values into the enclosing block's
// comparison predicates as constants, and only then builds and runs
// the block's plan — the same imperative shape as the engine's
// hand-built funcNode queries.
type deferredNode struct {
	name    string
	scalars []scalarPlan
	build   func(vals []float64) (plan.Node, error)
	// cached built node for Explain before execution; nil until run.
	built plan.Node
}

// Execute implements plan.Node.
func (d *deferredNode) Execute(ctx *plan.Context) (*colstore.Table, error) {
	vals := make([]float64, len(d.scalars))
	for i := range d.scalars {
		t, err := d.scalars[i].node.Execute(ctx)
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
	d.built = n
	return n.Execute(ctx)
}

// Children implements plan.ChildNodes: the scalar subquery plans, plus
// the built block when available. Before execution the block does not
// exist yet, so capability scans (e.g. spill) see only the scalars —
// conservative, since an unseen join keeps MemLimitError semantics.
func (d *deferredNode) Children() []plan.Node {
	out := make([]plan.Node, 0, len(d.scalars)+1)
	for i := range d.scalars {
		out = append(out, d.scalars[i].node)
	}
	if d.built != nil {
		out = append(out, d.built)
	}
	return out
}

// RewriteChildren implements plan.ChildRewriter: the scalar subquery
// plans now, the enclosing block when Execute builds it.
func (d *deferredNode) RewriteChildren(rewrite func(plan.Node) plan.Node) plan.Node {
	c := &deferredNode{name: d.name, scalars: make([]scalarPlan, len(d.scalars))}
	for i := range d.scalars {
		c.scalars[i] = scalarPlan{node: rewrite(d.scalars[i].node)}
	}
	c.build = func(vals []float64) (plan.Node, error) {
		n, err := d.build(vals)
		if err != nil {
			return nil, err
		}
		return rewrite(n), nil
	}
	return c
}

// Explain implements plan.Node.
func (d *deferredNode) Explain(depth int) string {
	pad := strings.Repeat("  ", depth)
	out := pad + d.name + "\n"
	for i := range d.scalars {
		out += pad + fmt.Sprintf("  scalar[%d]:\n", i) + d.scalars[i].node.Explain(depth+2)
	}
	if d.built != nil {
		out += d.built.Explain(depth + 1)
	}
	return out
}
