package plan

import (
	"fmt"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// TestStringPredicateChargesIndependentOfWorkers runs each string
// predicate shape (LIKE, NOT LIKE, =, <>, IN), alone and inside And and
// Or, over a table of many morsels at 1, 2 and 4 workers, as a scan's
// predicate and as a filter narrowing a scan's selection, under both
// execution modes. The selection and every counter must be the same at
// each worker count: a string predicate builds its dictionary mask once
// a selection, not once a morsel. The one exception is MergeBytes, which
// one worker does not charge because it runs no merge.
func TestStringPredicateChargesIndependentOfWorkers(t *testing.T) {
	words := []string{"red apple", "green pear", "red plum", "blue fig", "pale green", "dark red", "gold", "grey"}
	tb := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "s", Type: colstore.String},
	})
	for r := 0; r < 1000; r++ {
		tb.Int(0, int64(r%10))
		tb.Str(1, words[(r*7+r/13)%len(words)])
		tb.EndRow()
	}
	cat := memCatalog{"t": tb.Build()}
	like := exec.Like{Column: "s", Pattern: "%red%"}
	notLike := exec.Like{Column: "s", Pattern: "%re_%", Negate: true}
	eq := exec.StrEq{Column: "s", V: "gold"}
	ne := exec.StrEq{Column: "s", V: "grey", Negate: true}
	in := exec.StrIn{Column: "s", Vals: []string{"blue fig", "gold", "absent"}}
	preds := []exec.Pred{
		like, notLike, eq, ne, in,
		exec.AndOf(exec.CmpI{Column: "k", Op: exec.Lt, V: 7}, like, ne),
		exec.OrOf(eq, in, notLike),
		exec.OrOf(exec.AndOf(like, exec.CmpI{Column: "k", Op: exec.Ge, V: 3}), exec.AndOf(in, ne)),
	}
	for _, p := range preds {
		for _, shape := range []struct {
			name string
			node Node
		}{
			{"scan", &Scan{Table: "t", Pred: p}},
			{"filter", &Filter{Input: &Scan{Table: "t", Pred: exec.CmpI{Column: "k", Op: exec.Ne, V: 4}}, Pred: p}},
		} {
			for _, mode := range []ExecMode{ExecVector, ExecFused} {
				label := fmt.Sprintf("%s %s %s", mode, shape.name, p)
				var want *Result
				for _, w := range []int{1, 2, 4} {
					got, err := RunContext(&Context{Cat: cat, Workers: w, MorselRows: 64, Exec: mode}, shape.node)
					if err != nil {
						t.Fatalf("%s at %d workers: %v", label, w, err)
					}
					if w == 1 {
						got.Counters.MergeBytes = 0
						want = got
						continue
					}
					if ok, why := colstore.TablesIdentical(want.Table, got.Table); !ok {
						t.Errorf("%s: %d workers select other rows than one: %s", label, w, why)
					}
					if got.Counters.MergeBytes == 0 {
						t.Errorf("%s: %d workers charged no merge; the table should span many morsels", label, w)
					}
					got.Counters.MergeBytes = 0
					if got.Counters != want.Counters {
						t.Errorf("%s: %d workers charged\n%+v\none worker\n%+v", label, w, got.Counters, want.Counters)
					}
				}
			}
		}
	}
}

// caseTable is 1 000 rows of a string column s, an int64 column k
// cycling through ten values, an int64 column c clustered in runs of
// 100, and a float64 column x.
func caseTable() memCatalog {
	words := []string{"red apple", "green pear", "red plum", "blue fig", "pale green", "dark red", "gold", "grey"}
	tb := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "c", Type: colstore.Int64},
		{Name: "s", Type: colstore.String},
		{Name: "x", Type: colstore.Float64},
	})
	for r := 0; r < 1000; r++ {
		tb.Int(0, int64(r%10))
		tb.Int(1, int64(r/100))
		tb.Str(2, words[(r*7+r/13)%len(words)])
		tb.Float(3, float64(r%17)/4)
		tb.EndRow()
	}
	return memCatalog{"t": tb.Build()}
}

// redCase is `case when s like '%red%' then x else 0 end`.
var redCase = exec.CaseWhenF{Pred: exec.Like{Column: "s", Pattern: "%red%"}, Then: exec.Col{Name: "x"}, Else: exec.ConstF{V: 0}}

// TestCaseStringMaskChargedOnce: a CASE over a string predicate, evaluated
// in 64-row morsels by a Project, charges the same work at 1, 2 and 4
// workers: the predicate's dictionary mask is built once over the whole
// input, not once a morsel. MergeBytes aside, which one worker does not
// charge.
func TestCaseStringMaskChargedOnce(t *testing.T) {
	cat := caseTable()
	node := &Project{Input: &Scan{Table: "t"}, Cols: []NamedExpr{{Name: "v", Expr: exec.Mul(redCase, exec.ConstF{V: 2})}}}
	var want *Result
	for _, w := range []int{1, 2, 4} {
		got, err := RunContext(&Context{Cat: cat, Workers: w, MorselRows: 64}, node)
		if err != nil {
			t.Fatalf("%d workers: %v", w, err)
		}
		got.Counters.MergeBytes = 0
		if want == nil {
			want = got
			continue
		}
		if ok, why := colstore.TablesIdentical(want.Table, got.Table); !ok {
			t.Errorf("%d workers: other values than one: %s", w, why)
		}
		if got.Counters != want.Counters {
			t.Errorf("%d workers charged IntOps %d, one worker %d\n%+v\n%+v", w, got.Counters.IntOps, want.Counters.IntOps, got.Counters, want.Counters)
		}
	}
}

// TestGroupedCaseStringMaskChargedOnce: `sum(case when s like … end)`
// grouped by a scattered key (the morsel path) and by a clustered one
// (the chunked path) charges the same IntOps over one morsel as over
// sixteen, at one worker and at two, beyond what the same sum over the
// CASE's plain column charges: the mask is built once a group-by.
func TestGroupedCaseStringMaskChargedOnce(t *testing.T) {
	cat := caseTable()
	intOps := func(key string, arg exec.Expr, w, morselRows int) int64 {
		node := &GroupBy{Input: &Scan{Table: "t"}, Keys: []string{key}, Aggs: []AggSpec{{Name: "v", Func: Sum, Arg: arg}}}
		res, err := RunContext(&Context{Cat: cat, Workers: w, MorselRows: morselRows}, node)
		if err != nil {
			t.Fatalf("group by %s over %d-row morsels at %d workers: %v", key, morselRows, w, err)
		}
		return res.Counters.IntOps
	}
	for _, key := range []string{"k", "c"} {
		for _, w := range []int{1, 2} {
			one := intOps(key, redCase, w, 1000) - intOps(key, exec.Col{Name: "x"}, w, 1000)
			sixteen := intOps(key, redCase, w, 64) - intOps(key, exec.Col{Name: "x"}, w, 64)
			if one != sixteen {
				t.Errorf("group by %s at %d workers: the CASE costs %d IntOps over one morsel, %d over sixteen", key, w, one, sixteen)
			}
		}
	}
}
