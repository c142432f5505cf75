package tpch

import (
	"context"
	"fmt"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/plan"
)

// DistQuery is the distributed form of one representative query under
// the paper's cluster layout (lineitem partitioned on l_orderkey, all
// other tables replicated): a partial plan every node runs on its
// partition, plus a merge plan the coordinator runs over the
// concatenated partials. The merged result is identical to running the
// single-node query over the whole dataset.
type DistQuery struct {
	// Num is the TPC-H query number.
	Num int
	// SingleNode marks queries that touch no partitioned table and
	// therefore run on one node only (Q13 — the flat line of Table III).
	SingleNode bool
	// Partial builds the per-node plan.
	Partial func() plan.Node
	// Merge builds the coordinator plan over the concatenated partials.
	Merge func(parts *colstore.Table) plan.Node
}

// DistQueryFor returns the distributed form of query n. Only the eight
// representative queries (RepresentativeQueries) are supported.
func DistQueryFor(n int) (*DistQuery, error) {
	if d, ok := distQueries[n]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("tpch: query %d has no distributed form", n)
}

// MergePartials concatenates per-node partial results and runs the merge
// plan over them, returning the final table and the merge work profile.
func (dq *DistQuery) MergePartials(parts []*colstore.Table, workers int) (*colstore.Table, exec.Counters, error) {
	if dq.SingleNode {
		if len(parts) != 1 {
			return nil, exec.Counters{}, fmt.Errorf("tpch: Q%d is single-node but got %d partials", dq.Num, len(parts))
		}
		return parts[0], exec.Counters{}, nil
	}
	all, err := colstore.Concat(parts...)
	if err != nil {
		return nil, exec.Counters{}, fmt.Errorf("tpch: Q%d merge: %w", dq.Num, err)
	}
	db := engine.NewDB(engine.Config{Workers: workers})
	res, err := db.RunQuery(context.Background(), dq.Merge(all), engine.QueryOpts{})
	if err != nil {
		return nil, exec.Counters{}, fmt.Errorf("tpch: Q%d merge: %w", dq.Num, err)
	}
	return res.Table, res.Counters, nil
}

var distQueries = map[int]*DistQuery{
	1: {
		Num: 1,
		Partial: func() plan.Node {
			return &plan.GroupBy{
				Input: &plan.Scan{
					Table: "lineitem",
					Columns: []string{"l_returnflag", "l_linestatus", "l_quantity",
						"l_extendedprice", "l_discount", "l_tax", "l_shipdate"},
					Pred: exec.CmpD{Column: "l_shipdate", Op: exec.Le, V: date("1998-09-02")},
				},
				Keys: []string{"l_returnflag", "l_linestatus"},
				Aggs: []plan.AggSpec{
					{Name: "sum_qty", Func: plan.Sum, Arg: exec.Col{Name: "l_quantity"}},
					{Name: "sum_base_price", Func: plan.Sum, Arg: exec.Col{Name: "l_extendedprice"}},
					{Name: "sum_disc_price", Func: plan.Sum, Arg: revenue()},
					{Name: "sum_charge", Func: plan.Sum, Arg: exec.Mul(revenue(),
						exec.Add(exec.ConstF{V: 1}, exec.Col{Name: "l_tax"}))},
					{Name: "sum_disc", Func: plan.Sum, Arg: exec.Col{Name: "l_discount"}},
					{Name: "count_order", Func: plan.Count},
				},
			}
		},
		Merge: func(parts *colstore.Table) plan.Node {
			regroup := &plan.GroupBy{
				Input: tableNode{parts},
				Keys:  []string{"l_returnflag", "l_linestatus"},
				Aggs: []plan.AggSpec{
					{Name: "sum_qty", Func: plan.Sum, Arg: exec.Col{Name: "sum_qty"}},
					{Name: "sum_base_price", Func: plan.Sum, Arg: exec.Col{Name: "sum_base_price"}},
					{Name: "sum_disc_price", Func: plan.Sum, Arg: exec.Col{Name: "sum_disc_price"}},
					{Name: "sum_charge", Func: plan.Sum, Arg: exec.Col{Name: "sum_charge"}},
					{Name: "sum_disc", Func: plan.Sum, Arg: exec.Col{Name: "sum_disc"}},
					{Name: "count_order", Func: plan.SumI, Arg: exec.Col{Name: "count_order"}},
				},
			}
			return &plan.OrderBy{
				Keys: []exec.SortKey{{Column: "l_returnflag"}, {Column: "l_linestatus"}},
				Input: &plan.Project{
					Input: regroup,
					Cols: []plan.NamedExpr{
						{Name: "l_returnflag", Expr: exec.Col{Name: "l_returnflag"}},
						{Name: "l_linestatus", Expr: exec.Col{Name: "l_linestatus"}},
						{Name: "sum_qty", Expr: exec.Col{Name: "sum_qty"}},
						{Name: "sum_base_price", Expr: exec.Col{Name: "sum_base_price"}},
						{Name: "sum_disc_price", Expr: exec.Col{Name: "sum_disc_price"}},
						{Name: "sum_charge", Expr: exec.Col{Name: "sum_charge"}},
						{Name: "avg_qty", Expr: exec.Div(exec.Col{Name: "sum_qty"}, exec.Col{Name: "count_order"})},
						{Name: "avg_price", Expr: exec.Div(exec.Col{Name: "sum_base_price"}, exec.Col{Name: "count_order"})},
						{Name: "avg_disc", Expr: exec.Div(exec.Col{Name: "sum_disc"}, exec.Col{Name: "count_order"})},
						{Name: "count_order", Expr: exec.Col{Name: "count_order"}},
					},
				},
			}
		},
	},
	3: {
		Num: 3,
		// Lineitem is partitioned on l_orderkey, so every Q3 group lives
		// on exactly one node: partials are locally final and the merge
		// is a global top-10.
		Partial: func() plan.Node { return Q3() },
		Merge: func(parts *colstore.Table) plan.Node {
			return &plan.OrderBy{
				Keys:  []exec.SortKey{{Column: "revenue", Desc: true}, {Column: "o_orderdate"}},
				N:     10,
				Input: tableNode{parts},
			}
		},
	},
	4: {
		Num: 4,
		// Orders are replicated but an order's lines all live on one
		// node, so each node counts only orders whose late lines are
		// local; per-priority counts add up across nodes.
		Partial: func() plan.Node {
			return &plan.GroupBy{
				Input: &plan.HashJoin{
					Build: &plan.Scan{
						Table:   "lineitem",
						Columns: []string{"l_orderkey", "l_commitdate", "l_receiptdate"},
						Pred:    exec.ColCmpD{A: "l_commitdate", B: "l_receiptdate", Op: exec.Lt},
					},
					Probe: &plan.Scan{
						Table:   "orders",
						Columns: []string{"o_orderkey", "o_orderdate", "o_orderpriority"},
						Pred:    exec.DateRange{Column: "o_orderdate", Lo: date("1993-07-01"), Hi: date("1993-10-01")},
					},
					BuildKeys: []string{"l_orderkey"},
					ProbeKeys: []string{"o_orderkey"},
					Kind:      plan.Semi,
				},
				Keys: []string{"o_orderpriority"},
				Aggs: []plan.AggSpec{{Name: "order_count", Func: plan.Count}},
			}
		},
		Merge: func(parts *colstore.Table) plan.Node {
			return &plan.OrderBy{
				Keys: []exec.SortKey{{Column: "o_orderpriority"}},
				Input: &plan.GroupBy{
					Input: tableNode{parts},
					Keys:  []string{"o_orderpriority"},
					Aggs:  []plan.AggSpec{{Name: "order_count", Func: plan.SumI, Arg: exec.Col{Name: "order_count"}}},
				},
			}
		},
	},
	5: {
		Num: 5,
		Partial: func() plan.Node {
			// Q5 without the final sort: per-nation partial revenue.
			full := Q5().(*plan.OrderBy)
			return full.Input
		},
		Merge: func(parts *colstore.Table) plan.Node {
			return &plan.OrderBy{
				Keys: []exec.SortKey{{Column: "revenue", Desc: true}},
				Input: &plan.GroupBy{
					Input: tableNode{parts},
					Keys:  []string{"n_name"},
					Aggs:  []plan.AggSpec{{Name: "revenue", Func: plan.Sum, Arg: exec.Col{Name: "revenue"}}},
				},
			}
		},
	},
	6: {
		Num:     6,
		Partial: func() plan.Node { return Q6() },
		Merge: func(parts *colstore.Table) plan.Node {
			return &plan.GroupBy{
				Input: tableNode{parts},
				Aggs:  []plan.AggSpec{{Name: "revenue", Func: plan.Sum, Arg: exec.Col{Name: "revenue"}}},
			}
		},
	},
	13: {
		Num:        13,
		SingleNode: true,
		Partial:    func() plan.Node { return Q13() },
		Merge:      nil,
	},
	14: {
		Num: 14,
		Partial: func() plan.Node {
			// Partial promo/total sums; the ratio is computed at merge.
			full := Q14().(*plan.Project)
			return full.Input
		},
		Merge: func(parts *colstore.Table) plan.Node {
			return &plan.Project{
				Input: &plan.GroupBy{
					Input: tableNode{parts},
					Aggs: []plan.AggSpec{
						{Name: "promo", Func: plan.Sum, Arg: exec.Col{Name: "promo"}},
						{Name: "total", Func: plan.Sum, Arg: exec.Col{Name: "total"}},
					},
				},
				Cols: []plan.NamedExpr{
					{Name: "promo_revenue", Expr: exec.Div(
						exec.Mul(exec.ConstF{V: 100}, exec.Col{Name: "promo"}),
						exec.Col{Name: "total"})},
				},
			}
		},
	},
	19: {
		Num:     19,
		Partial: func() plan.Node { return Q19() },
		Merge: func(parts *colstore.Table) plan.Node {
			return &plan.GroupBy{
				Input: tableNode{parts},
				Aggs:  []plan.AggSpec{{Name: "revenue", Func: plan.Sum, Arg: exec.Col{Name: "revenue"}}},
			}
		},
	},
}
