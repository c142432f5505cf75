package sql_test

import (
	"context"
	"fmt"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
)

// TestSQLPlansAreSpillable: the spill-capability scan must see every
// SQL-planned TPC-H join — including joins inside the frontend's memo
// (CTE) nodes and inside the block a deferred (scalar subquery) node
// builds at run time, as in Q15 and Q22, whose subqueries join nothing —
// so a memory budget spills those queries instead of cancelling them.
// Q1 and Q6 have no join at all.
func TestSQLPlansAreSpillable(t *testing.T) {
	data := fixture()
	db := engine.NewDB(engine.Config{})
	data.RegisterAll(db)
	notSpillable := map[int]bool{1: true, 6: true}
	for q := 1; q <= 22; q++ {
		if got := plan.Spillable(planSQL(t, db, q).Node); got == notSpillable[q] {
			t.Errorf("Q%d: Spillable = %v, want %v", q, got, !notSpillable[q])
		}
	}
}

// spillBudget is the budget the SQL spill tests force with. A join
// spills when its build side passes half the budget (over 93 build rows
// here); at SF 0.01 each of Q3, Q5 and Q10 has such a join and each of
// Q4, Q20 and Q21 such a key set.
const spillBudget = 8 << 10

// TestSQLSpillsUnderBudget: a SQL-planned join query under a tiny
// budget runs through the spill scheduler and stays byte-identical to
// the unbudgeted run.
func TestSQLSpillsUnderBudget(t *testing.T) {
	data := fixture()
	free := engine.NewDB(engine.Config{})
	data.RegisterAll(free)
	budgeted := engine.NewDB(engine.Config{MemBudgetBytes: spillBudget, SpillDir: t.TempDir()})
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
