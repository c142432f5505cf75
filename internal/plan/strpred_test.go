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
					got, err := RunContext(&Context{Cat: cat, Workers: w, MinParallelRows: 1, MorselRows: 64, Exec: mode}, shape.node)
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
