package sql_test

import (
	"context"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/obs"
)

// spansUnder counts the spans of kind op strictly below sp.
func spansUnder(sp *obs.Span, op string) int {
	n := 0
	for _, c := range sp.Children {
		if c.Op == op {
			n++
		}
		n += spansUnder(c, op)
	}
	return n
}

// TestTraceSeesInsideCTEs pins what tracing shows of a WITH query: the
// operators inside each CTE (Q21's four big group-bys are all inside
// two), one execution per CTE however often it is referenced (Q15 reads
// revenue0 twice, once from a deferred scalar subquery), and the same
// result and work as the untraced run.
func TestTraceSeesInsideCTEs(t *testing.T) {
	db := engine.NewDB(engine.Config{Workers: 4})
	fixture().RegisterAll(db)
	for _, tc := range []struct {
		q    int
		ctes map[string]int // CTE name -> references in the statement
	}{
		{21, map[string]int{"allsupp": 1, "late": 1}},
		{15, map[string]int{"revenue0": 2}},
	} {
		want, err := db.RunQuery(context.Background(), planSQL(t, db, tc.q).Node, engine.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.RunTraced(planSQL(t, db, tc.q).Node)
		if err != nil {
			t.Fatal(err)
		}
		if same, where := colstore.TablesIdentical(want.Table, got.Table); !same {
			t.Fatalf("Q%d: traced result differs: %s", tc.q, where)
		}
		if got.Counters != want.Counters {
			t.Fatalf("Q%d: traced work differs:\n got %+v\nwant %+v", tc.q, got.Counters, want.Counters)
		}
		refs, ran := map[string]int{}, map[string]int{}
		got.Root.Walk(func(sp *obs.Span, _ int) {
			name, ok := strings.CutPrefix(sp.Label, "cte ")
			if !ok {
				return
			}
			name = strings.TrimSuffix(name, " (memoized)")
			refs[name]++
			if groups := spansUnder(sp, "group-by"); groups > 0 {
				ran[name]++
			} else if len(sp.Children) > 0 {
				t.Errorf("Q%d: cte %s ran without a group-by span under it", tc.q, name)
			}
		})
		for name, n := range tc.ctes {
			if refs[name] != n || ran[name] != 1 {
				t.Errorf("Q%d: cte %s: %d span(s), input ran %d time(s); want %d and 1", tc.q, name, refs[name], ran[name], n)
			}
		}
	}
}
