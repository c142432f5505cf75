package plan_test

import (
	"context"
	"fmt"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// TestClusteredGroupByFromSQL runs the two queries the order-aware path
// exists for, from SQL text through engine.DB, with the path on and —
// through the in-test switch — off: same bytes, and the work profile
// shows which path ran. It lives here rather than in internal/engine
// because the switch is unexported. The optimizer stays off: at this
// scale Q21's key filters leave its group-bys too few rows for any
// parallel path, and the canonical plan aggregates whole lineitem scans.
func TestClusteredGroupByFromSQL(t *testing.T) {
	data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	for _, mode := range []plan.ExecMode{plan.ExecVector, plan.ExecFused} {
		db := engine.NewDB(engine.Config{Workers: 4, Exec: mode})
		data.RegisterAll(db)
		for _, q := range []int{18, 21} {
			t.Run(fmt.Sprintf("%s/Q%d", mode, q), func(t *testing.T) {
				run := func(clustered bool) *engine.Result {
					plan.SetClusteredGroupBy(clustered)
					defer plan.SetClusteredGroupBy(true)
					pl, err := sql.Plan(db, tpch.MustSQL(q), sql.Options{UniqueKeys: tpch.TableKeys(), NoOpt: true})
					if err != nil {
						t.Fatal(err)
					}
					res, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				on, off := run(true), run(false)
				if same, where := colstore.TablesIdentical(off.Table, on.Table); !same {
					t.Fatalf("order-aware path changed the result: %s", where)
				}
				if on.Counters.MergeBytes >= off.Counters.MergeBytes {
					t.Fatalf("merge bytes on/off = %d/%d, want fewer on",
						on.Counters.MergeBytes, off.Counters.MergeBytes)
				}
			})
		}
	}
}
