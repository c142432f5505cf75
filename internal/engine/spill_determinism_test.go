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

// spillBudgetBytes is far below every TPC-H join's build+probe state at
// the test scale factor, so each join-bearing query is forced through
// the spill scheduler.
const spillBudgetBytes = 64 << 10

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
// across 1/2/4/8 workers and the vector/fused/auto engines.
func TestQueriesIdenticalUnderSpillBudget(t *testing.T) {
	data := spillSuiteDataset()
	base := engine.NewDB(engine.Config{})
	data.RegisterAll(base)

	modes := []struct {
		name string
		mode plan.ExecMode
	}{
		{"vector", plan.ExecVector},
		{"fused", plan.ExecFused},
		{"auto", plan.ExecAuto},
	}
	spilledQueries := 0
	for _, q := range tpch.QueryNumbers() {
		p, err := tpch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.RunQuery(context.Background(), p, engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d unlimited: %v", q, err)
		}
		spillable := plan.Spillable(p)
		sawSpill := false
		for _, m := range modes {
			db := engine.NewDB(engine.Config{
				Exec:           m.mode,
				MemBudgetBytes: spillBudgetBytes,
				SpillDir:       t.TempDir(),
			})
			data.RegisterAll(db)
			for _, w := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("Q%d %s workers=%d", q, m.name, w)
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
		if spillable && !sawSpill {
			t.Errorf("Q%d: spillable plan never spilled under a %d-byte budget", q, spillBudgetBytes)
		}
		if sawSpill {
			spilledQueries++
		}
	}
	// The suite loses its point if the budget stops forcing spills.
	if spilledQueries < 15 {
		t.Fatalf("only %d/22 queries exercised the spill path", spilledQueries)
	}
}

// TestQueryOptsBudgetOverridesConfig: a per-query MemLimitBytes
// tightens the database default, and the database default applies when
// the option is zero.
func TestQueryOptsBudgetOverridesConfig(t *testing.T) {
	data := spillSuiteDataset()
	db := engine.NewDB(engine.Config{})
	data.RegisterAll(db)
	p := tpch.MustQuery(3)

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
