package sql_test

import (
	"context"
	"fmt"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

// TestSQLPlansAreSpillable: every SQL-planned TPC-H query with a join
// must be recognized by the spill-capability scan — including plans
// wrapped in the frontend's memo (CTE) and deferred (scalar subquery)
// nodes — so a memory budget spills it instead of cancelling it.
func TestSQLPlansAreSpillable(t *testing.T) {
	data := fixture()
	db := engine.NewDB(engine.Config{})
	data.RegisterAll(db)
	spillable := 0
	for q := 1; q <= 22; q++ {
		pl := planSQL(t, db, q)
		hand := plan.Spillable(tpch.MustQuery(q))
		got := plan.Spillable(pl.Node)
		if hand && !got {
			t.Errorf("Q%d: hand-built plan is spillable but the SQL plan is not (capability scan blocked by a frontend node?)", q)
		}
		if got {
			spillable++
		}
	}
	if spillable < 15 {
		t.Fatalf("only %d/22 SQL plans spillable", spillable)
	}
}

// TestSQLSpillsUnderBudget: a SQL-planned join query under a tiny
// budget runs through the spill scheduler and stays byte-identical to
// the unbudgeted run.
func TestSQLSpillsUnderBudget(t *testing.T) {
	data := fixture()
	free := engine.NewDB(engine.Config{})
	data.RegisterAll(free)
	budgeted := engine.NewDB(engine.Config{MemBudgetBytes: 64 << 10, SpillDir: t.TempDir()})
	data.RegisterAll(budgeted)
	for _, q := range []int{3, 5, 10} {
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			want, err := free.RunQuery(context.Background(), planSQL(t, free, q).Node, engine.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := budgeted.RunQuery(context.Background(), planSQL(t, budgeted, q).Node, engine.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := colstore.TablesIdentical(want.Table, got.Table); !ok {
				t.Fatalf("budgeted SQL result differs: %s", why)
			}
			if got.Counters.SpillWriteBytes == 0 || got.Counters.SpillReadBytes == 0 {
				t.Fatalf("budgeted SQL run did not spill: %+v", got.Counters)
			}
		})
	}
}
