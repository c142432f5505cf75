package sql

import (
	"fmt"
)

// DistSQL is the distributed decomposition of one SQL statement under
// the cluster layout (lineitem partitioned on l_orderkey, every other
// table replicated): a partial statement every node runs over its
// partition, plus a merge statement the coordinator runs over the
// concatenated partials, exposed as a table named "partials". The
// decomposition is purely textual — both halves go back through Plan on
// whichever node executes them, so a re-dispatched partition plans from
// exactly the same text (and, the optimizer being catalog-dependent and
// worker-independent, makes exactly the same choices) as its home node.
type DistSQL struct {
	// Partial is the per-node statement. For single-node statements it
	// is the original text unchanged.
	Partial string
	// Merge is the coordinator statement over the table "partials";
	// empty when SingleNode.
	Merge string
	// SingleNode marks statements that never touch the partitioned
	// lineitem table and therefore run on one node only (Q13).
	SingleNode bool
}

// Distribute splits a SQL statement into per-node partial and
// coordinator merge statements. The rewrite moves ORDER BY / LIMIT to
// the merge side and splits every aggregate so partials re-aggregate
// correctly: sum re-sums, count becomes sumi, min/max re-apply, and avg
// splits into a hidden sum + count pair recombined at merge.
//
// Correctness rests on the cluster layout invariant: any grouping or
// semi-join against lineitem is local to one partition (lineitem is
// partitioned by l_orderkey and an order's lines never straddle nodes),
// so per-node group partials are disjoint-or-mergeable and
// re-aggregation over the concatenation equals aggregation over the
// union.
func Distribute(text string) (*DistSQL, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	if tableRefs(stmt, "lineitem") == 0 {
		// Nothing partitioned is involved: ship the statement to one
		// node verbatim and return its result as-is.
		return &DistSQL{Partial: text, SingleNode: true}, nil
	}
	if len(stmt.CTEs) > 0 {
		return nil, errAt(stmt.CTEs[0].Pos, "WITH clauses are not distributable")
	}
	b := stmt.Sel
	if b.Having != nil {
		return nil, errAt(b.Having.pos(), "HAVING is not distributable")
	}
	for i := range b.From {
		if b.From[i].JoinLeft {
			return nil, errAt(b.From[i].Pos, "left join over the partitioned table is not distributable")
		}
	}

	keys := map[string]bool{}
	for _, g := range b.GroupBy {
		keys[g.Name] = true
	}

	partial := &SelectBlock{
		From:    b.From,
		Where:   b.Where,
		GroupBy: b.GroupBy,
		Limit:   -1,
		Pos:     b.Pos,
	}
	merge := &SelectBlock{
		From:    []FromItem{{Table: "partials", Pos: b.Pos}},
		GroupBy: b.GroupBy,
		OrderBy: b.OrderBy,
		Limit:   b.Limit,
		Pos:     b.Pos,
	}

	for i := range b.Items {
		it := &b.Items[i]
		name := outName(it)
		if keys[name] {
			// Group keys pass through the partial under their output
			// name; the merge regroups on them.
			partial.Items = append(partial.Items, *it)
			merge.Items = append(merge.Items, SelectItem{
				Expr: &ColRef{Name: name, Pos: it.Pos}, Pos: it.Pos,
			})
			continue
		}
		if !containsAgg(it.Expr) {
			return nil, errAt(it.Pos, "select item %q has no aggregate and is not a group key; cannot distribute", name)
		}
		hidden := 0
		mergeExpr, err := splitAggExpr(it.Expr, name, &hidden, &partial.Items)
		if err != nil {
			return nil, err
		}
		merge.Items = append(merge.Items, SelectItem{Expr: mergeExpr, Alias: name, Pos: it.Pos})
	}

	d := &DistSQL{
		Partial: (&Stmt{Sel: partial}).String(),
		Merge:   (&Stmt{Sel: merge}).String(),
	}
	// Both halves must survive a reparse — a rewrite the printer cannot
	// round-trip would fail on the worker, far from the cause.
	for _, half := range []string{d.Partial, d.Merge} {
		if _, err := Parse(half); err != nil {
			return nil, fmt.Errorf("sql: distributed rewrite does not reparse: %w", err)
		}
	}
	return d, nil
}

// splitAggExpr rewrites one agg-bearing select expression for two-phase
// aggregation. Every aggregate call becomes one or two partial-side
// columns (appended to partialItems), and the returned expression
// computes the original item from re-aggregations of those columns on
// the merge side.
func splitAggExpr(e Expr, item string, hidden *int, partialItems *[]SelectItem) (Expr, error) {
	switch ex := e.(type) {
	case *FuncExpr:
		if !isAggName(ex.Name) {
			break
		}
		name := func() string {
			n := fmt.Sprintf("%s__p%d", item, *hidden)
			*hidden++
			return n
		}
		reagg := func(fn, col string) *FuncExpr {
			return &FuncExpr{Name: fn, Args: []Expr{&ColRef{Name: col, Pos: ex.Pos}}, Pos: ex.Pos}
		}
		switch ex.Name {
		case "sum", "min", "max":
			// sum/min/max re-apply over the per-node values.
			p := name()
			*partialItems = append(*partialItems, SelectItem{Expr: ex, Alias: p, Pos: ex.Pos})
			fn := ex.Name
			return reagg(fn, p), nil
		case "count":
			// Per-node counts are ints; they add with the integer sum.
			p := name()
			*partialItems = append(*partialItems, SelectItem{Expr: ex, Alias: p, Pos: ex.Pos})
			return reagg("sumi", p), nil
		case "sumi":
			p := name()
			*partialItems = append(*partialItems, SelectItem{Expr: ex, Alias: p, Pos: ex.Pos})
			return reagg("sumi", p), nil
		case "avg":
			// avg of avgs is wrong under skewed partitions: split into a
			// hidden sum + count pair and recombine at merge.
			ps, pc := name(), name()
			*partialItems = append(*partialItems,
				SelectItem{Expr: &FuncExpr{Name: "sum", Args: ex.Args, Pos: ex.Pos}, Alias: ps, Pos: ex.Pos},
				SelectItem{Expr: &FuncExpr{Name: "count", Pos: ex.Pos}, Alias: pc, Pos: ex.Pos},
			)
			return &BinExpr{Op: "/", L: reagg("sum", ps), R: reagg("sumi", pc), Pos: ex.Pos}, nil
		}
	case *BinExpr:
		l, err := splitAggExpr(ex.L, item, hidden, partialItems)
		if err != nil {
			return nil, err
		}
		r, err := splitAggExpr(ex.R, item, hidden, partialItems)
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: ex.Op, L: l, R: r, Pos: ex.Pos}, nil
	case *NumLit:
		return ex, nil
	case *ColRef, *StrLit, *DateLit, *IntervalLit, *CaseExpr, *NotExpr,
		*InExpr, *BetweenExpr, *LikeExpr, *SubqueryExpr:
		// Not arithmetic over aggregates; fall through to the error.
	}
	return nil, errAt(e.pos(), "unsupported expression around an aggregate in a distributed statement")
}

// tableRefs counts the FROM items naming table anywhere in the
// statement, subqueries and CTE bodies included.
func tableRefs(s *Stmt, table string) int {
	n := blockTableRefs(s.Sel, table)
	for i := range s.CTEs {
		n += blockTableRefs(s.CTEs[i].Sel, table)
	}
	return n
}

func blockTableRefs(b *SelectBlock, table string) int {
	n := 0
	for i := range b.From {
		f := &b.From[i]
		if f.Table == table {
			n++
		}
		if f.Sub != nil {
			n += blockTableRefs(f.Sub, table)
		}
	}
	for _, e := range []Expr{b.Where, b.Having} {
		if e != nil {
			n += exprTableRefs(e, table)
		}
	}
	for i := range b.Items {
		n += exprTableRefs(b.Items[i].Expr, table)
	}
	return n
}

// exprTableRefs descends into IN and scalar subqueries; other expression
// forms cannot name tables.
func exprTableRefs(e Expr, table string) int {
	switch ex := e.(type) {
	case *InExpr:
		n := exprTableRefs(ex.E, table)
		if ex.Sub != nil {
			n += blockTableRefs(ex.Sub, table)
		}
		return n
	case *SubqueryExpr:
		return blockTableRefs(ex.Sel, table)
	case *BinExpr:
		return exprTableRefs(ex.L, table) + exprTableRefs(ex.R, table)
	case *NotExpr:
		return exprTableRefs(ex.E, table)
	case *BetweenExpr:
		return exprTableRefs(ex.E, table) + exprTableRefs(ex.Lo, table) + exprTableRefs(ex.Hi, table)
	case *CaseExpr:
		return exprTableRefs(ex.When, table) + exprTableRefs(ex.Then, table) + exprTableRefs(ex.Else, table)
	case *LikeExpr:
		return exprTableRefs(ex.E, table)
	case *FuncExpr:
		n := 0
		for _, a := range ex.Args {
			n += exprTableRefs(a, table)
		}
		return n
	case *ColRef, *NumLit, *StrLit, *DateLit, *IntervalLit:
		// Leaves name columns, never tables.
	}
	return 0
}
