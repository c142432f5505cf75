package sql_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
)

// TestPlanReuse: one planned tree runs any number of times, from several
// goroutines at once too, with the same table and the same work counters
// every time. A CTE's table and a deferred block live on the run, not in
// the tree, so a second run cannot read the first run's CTE (Q15 would
// scan 100 tuples instead of lineitem) and concurrent runs share no
// state (make race repeats this test under the race detector).
func TestPlanReuse(t *testing.T) {
	data := fixture()
	for _, em := range []plan.ExecMode{plan.ExecVector, plan.ExecFused} {
		db := engine.NewDB(engine.Config{Workers: 2, Exec: em})
		data.RegisterAll(db)
		for q := 1; q <= 22; q++ {
			t.Run(fmt.Sprintf("%s/Q%d", em, q), func(t *testing.T) {
				n := planSQL(t, db, q).Node
				run := func() (*engine.Result, error) {
					return db.RunQuery(context.Background(), n, engine.QueryOpts{})
				}
				first, err := run()
				if err != nil {
					t.Fatal(err)
				}
				same := func(label string, res *engine.Result) {
					t.Helper()
					if ok, why := colstore.TablesIdentical(first.Table, res.Table); !ok {
						t.Errorf("%s: table differs from the first run: %s", label, why)
					}
					if res.Counters != first.Counters {
						t.Errorf("%s: counters differ from the first run:\n got %+v\nwant %+v", label, res.Counters, first.Counters)
					}
				}
				second, err := run()
				if err != nil {
					t.Fatal(err)
				}
				same("second run", second)

				results := make([]*engine.Result, 4)
				errs := make([]error, len(results))
				var wg sync.WaitGroup
				for i := range results {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						results[i], errs[i] = run()
					}(i)
				}
				wg.Wait()
				for i, res := range results {
					if errs[i] != nil {
						t.Fatalf("concurrent run %d: %v", i, errs[i])
					}
					same(fmt.Sprintf("concurrent run %d", i), res)
				}
			})
		}
	}
}
