package plan_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// TestLazyGathersMatchEager runs all 22 queries with lazy gathers and,
// through the in-test switch, with every gather copying at once: at 1, 2
// and 8 workers, unbudgeted and under a 64 KiB budget with a spill
// directory. A lazy gather only defers the copy it charges, so the
// tables must be byte-identical and the counters and span trees (wall
// clocks left out) identical. It lives here because the switch is
// unexported.
func TestLazyGathersMatchEager(t *testing.T) {
	data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	for _, budget := range []int64{0, 64 << 10} {
		for _, w := range []int{1, 2, 8} {
			db := engine.NewDB(engine.Config{Workers: w, MemBudgetBytes: budget, SpillDir: t.TempDir()})
			data.RegisterAll(db)
			for _, q := range tpch.QueryNumbers() {
				t.Run(fmt.Sprintf("budget=%d/W=%d/Q%d", budget, w, q), func(t *testing.T) {
					pl, err := sql.Plan(db, tpch.MustSQL(q), sql.Options{UniqueKeys: tpch.TableKeys()})
					if err != nil {
						t.Fatal(err)
					}
					run := func(lazy bool) (*engine.Result, string, error) {
						plan.SetLazyGathers(lazy)
						defer plan.SetLazyGathers(true)
						res, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
						if err != nil {
							return nil, "", err
						}
						traced, err := db.RunTraced(pl.Node)
						if err != nil {
							return nil, "", err
						}
						return res, spanTree(traced.Root), nil
					}
					eager, eagerSpans, eagerErr := run(false)
					lazy, lazySpans, lazyErr := run(true)
					if eagerErr != nil || lazyErr != nil {
						// A plan with nothing to spill is cancelled by the
						// budget, the same way on both paths.
						if fmt.Sprint(eagerErr) != fmt.Sprint(lazyErr) {
							t.Fatalf("eager error %v, lazy error %v", eagerErr, lazyErr)
						}
						return
					}
					if same, where := colstore.TablesIdentical(eager.Table, lazy.Table); !same {
						t.Fatalf("lazy gathers changed the result: %s", where)
					}
					if lazy.Counters != eager.Counters {
						t.Fatalf("lazy counters\n%+v\neager counters\n%+v", lazy.Counters, eager.Counters)
					}
					if lazySpans != eagerSpans {
						t.Fatalf("lazy span tree\n%s\neager span tree\n%s", lazySpans, eagerSpans)
					}
				})
			}
		}
	}
}

// spanTree renders a span tree one span a line: depth, operator, label,
// rows, bytes and self counters, without the wall clock.
func spanTree(root *obs.Span) string {
	var b strings.Builder
	root.Walk(func(sp *obs.Span, depth int) {
		fmt.Fprintf(&b, "%d %s %q rows=%d bytes=%d %+v\n", depth, sp.Op, sp.Label, sp.Rows, sp.Bytes, sp.SelfCounters())
	})
	return b.String()
}
