package sql_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

var (
	fixtureOnce sync.Once
	fixtureData *tpch.Dataset
)

// fixture generates one SF 0.01 dataset for the whole test binary.
func fixture() *tpch.Dataset {
	fixtureOnce.Do(func() {
		fixtureData = tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	})
	return fixtureData
}

var execModes = []struct {
	name string
	mode plan.ExecMode
}{
	{"vector", plan.ExecVector},
	{"fused", plan.ExecFused},
	// "auto" is the zero ExecMode: a caller that names no engine gets the
	// default one. The label is older than that meaning and is kept so
	// the subtest IDs stay stable.
	{"auto", ""},
}

// planSQL compiles query q's SQL text against db with the standard
// options, failing the test on any planning error.
func planSQL(t *testing.T, db *engine.DB, q int) *sql.Planned {
	t.Helper()
	text, err := tpch.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sql.Plan(db, text, sql.Options{UniqueKeys: tpch.TableKeys()})
	if err != nil {
		t.Fatalf("Q%d: plan: %v\nsql:%s", q, err, text)
	}
	return pl
}

// TestSQLMatchesHandBuilt proves the optimizer end to end: every TPC-H
// query's optimized plan — reordered joins, key filters — must produce
// output byte-identical to the canonical lowering of the same text
// (Options.NoOpt), at every worker count and execution strategy. The
// canonical lowering reproduces what were once the engine's hand-built
// TPC-H plans, whence the name. Byte-identical means same shape, same
// column names in order, and same values — including float bit patterns
// (colstore.TablesIdentical).
func TestSQLMatchesHandBuilt(t *testing.T) {
	data := fixture()
	workerCounts := []int{1, 2, 4, 8}
	if testing.Short() {
		workerCounts = []int{1, 4}
	}
	for _, workers := range workerCounts {
		for _, em := range execModes {
			db := engine.NewDB(engine.Config{Workers: workers, Exec: em.mode})
			data.RegisterAll(db)
			for q := 1; q <= 22; q++ {
				q := q
				t.Run(fmt.Sprintf("w%d/%s/Q%d", workers, em.name, q), func(t *testing.T) {
					canon, err := sql.Plan(db, tpch.MustSQL(q), sql.Options{UniqueKeys: tpch.TableKeys(), NoOpt: true})
					if err != nil {
						t.Fatal(err)
					}
					want, err := db.RunQuery(context.Background(), canon.Node, engine.QueryOpts{})
					if err != nil {
						t.Fatalf("canonical plan: %v", err)
					}
					pl := planSQL(t, db, q)
					got, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
					if err != nil {
						t.Fatalf("sql plan: %v\nplan:\n%s", err, pl.Node.Explain(0))
					}
					if ok, diff := colstore.TablesIdentical(got.Table, want.Table); !ok {
						t.Fatalf("Q%d: optimized result differs from the canonical lowering: %s\nsql plan:\n%s",
							q, diff, pl.Node.Explain(0))
					}
				})
			}
		}
	}
}
