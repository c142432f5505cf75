package engine_test

// Budget-bounded determinism suite: every TPC-H query must produce
// byte-identical results whether it runs unlimited or forced through
// the spill scheduler by a budget far below its join state, at every
// worker count and in every execution mode. Spilling changes where
// partition state lives and in what order partitions are probed —
// never the emitted match order, so even floating-point aggregates
// merge identically.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"wimpi/internal/engine"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

// spillBudgetBytes is the budget of the engine's other budgeted tests
// and of spans.golden's spill block. A join spills when its build
// side's state (44 bytes a row) passes half the budget — the probe side
// streams past a build that fits and holds no join state — so this
// budget spills the joins with 745 build rows or more: at SF 0.01 those
// of make spill-smoke's Q3, Q4 and Q13, and none of Q8's or Q17's.
const spillBudgetBytes = 64 << 10

// spillSuiteBudgetBytes is the budget TestQueriesIdenticalUnderSpillBudget
// forces with: half of it is 2.9 build rows, so every join-bearing query
// with a build side of three rows or more spills.
const spillSuiteBudgetBytes = 256

// neverSpills names the join-bearing queries no budget makes spill at
// the suite's scale factor, and why.
var neverSpills = map[int]string{
	15: "its join's build side is the one revenue0 row that equals the scalar subquery's max",
	18: "its IN-subquery build side is empty at SF 0.01",
}

var (
	spillSuiteOnce sync.Once
	spillSuiteData *tpch.Dataset
)

func spillSuiteDataset() *tpch.Dataset {
	spillSuiteOnce.Do(func() {
		spillSuiteData = tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	})
	return spillSuiteData
}

// TestQueriesIdenticalUnderSpillBudget is the acceptance gate for
// budget-bounded execution: all 22 queries, unlimited vs spill-forced,
// across 1/2/4/8 workers and the vector/fused engines, at the default
// morsel and at 1 Ki-row morsels, where every input longer than one
// morsel takes its kernel's parallel path.
func TestQueriesIdenticalUnderSpillBudget(t *testing.T) {
	data := spillSuiteDataset()
	defer engine.SetMorselRows(0)
	for _, morsel := range []int{0, 1 << 10} {
		engine.SetMorselRows(morsel)
		base := engine.NewDB(engine.Config{})
		data.RegisterAll(base)

		spilledQueries := 0
		for _, q := range tpch.QueryNumbers() {
			p, err := tpch.Query(base, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := base.RunQuery(context.Background(), p, engine.QueryOpts{})
			if err != nil {
				t.Fatalf("Q%d morsel=%d unlimited: %v", q, morsel, err)
			}
			spillable := plan.Spillable(p)
			sawSpill := false
			for _, mode := range []plan.ExecMode{plan.ExecVector, plan.ExecFused} {
				db := engine.NewDB(engine.Config{
					Exec:           mode,
					MemBudgetBytes: spillSuiteBudgetBytes,
					SpillDir:       t.TempDir(),
				})
				data.RegisterAll(db)
				for _, w := range []int{1, 2, 4, 8} {
					label := fmt.Sprintf("Q%d %s morsel=%d workers=%d", q, mode, morsel, w)
					res, err := db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
					if !spillable {
						// Nothing to spill: the budget may only cancel.
						var mem *plan.MemLimitError
						if err != nil && !errors.As(err, &mem) {
							t.Fatalf("%s: err = %v, want nil or *plan.MemLimitError", label, err)
						}
						if err != nil {
							continue
						}
					} else if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertTablesIdentical(t, want.Table, res.Table, label)
					if res.Counters.SpillWriteBytes > 0 {
						if res.Counters.SpillReadBytes == 0 {
							t.Fatalf("%s: spilled %d bytes but read none back",
								label, res.Counters.SpillWriteBytes)
						}
						sawSpill = true
					}
				}
			}
			why, exempt := neverSpills[q]
			switch {
			case spillable && exempt && sawSpill:
				t.Errorf("Q%d spilled under a %d-byte budget, but %s", q, spillSuiteBudgetBytes, why)
			case spillable && !exempt && !sawSpill:
				t.Errorf("Q%d: spillable plan never spilled under a %d-byte budget", q, spillSuiteBudgetBytes)
			}
			if sawSpill {
				spilledQueries++
			}
		}
		// The suite loses its point if the budget stops forcing spills.
		if spilledQueries < 15 {
			t.Fatalf("morsel=%d: only %d/22 queries exercised the spill path", morsel, spilledQueries)
		}
	}
}

// TestQueryOptsBudgetOverridesConfig: a per-query MemLimitBytes
// tightens the database default, and the database default applies when
// the option is zero.
func TestQueryOptsBudgetOverridesConfig(t *testing.T) {
	data := spillSuiteDataset()
	db := engine.NewDB(engine.Config{})
	data.RegisterAll(db)
	p := tpch.MustQuery(db, 3)

	unlimited, err := db.RunQuery(context.Background(), p, engine.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.Counters.SpillWriteBytes != 0 {
		t.Fatalf("unbudgeted run spilled: %+v", unlimited.Counters)
	}

	res, err := db.RunQuery(context.Background(), p, engine.QueryOpts{MemLimitBytes: spillBudgetBytes})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpillWriteBytes == 0 {
		t.Fatal("per-query budget did not force a spill")
	}
	assertTablesIdentical(t, unlimited.Table, res.Table, "per-query budget")

	budgeted := engine.NewDB(engine.Config{MemBudgetBytes: spillBudgetBytes})
	data.RegisterAll(budgeted)
	res, err = budgeted.RunQuery(context.Background(), p, engine.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.SpillWriteBytes == 0 {
		t.Fatal("database-default budget did not force a spill")
	}
	assertTablesIdentical(t, unlimited.Table, res.Table, "database budget")
}
