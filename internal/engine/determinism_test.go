package engine_test

// Determinism suite: every TPC-H query must produce byte-identical
// results at every worker count. Morsel boundaries depend only on input
// size, so per-morsel partial results — floating-point sums included —
// merge in the same order regardless of parallelism.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

var (
	detOnce sync.Once
	detDB   *engine.DB
)

func determinismDB(t *testing.T) *engine.DB {
	t.Helper()
	detOnce.Do(func() {
		data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
		detDB = engine.NewDB(engine.Config{})
		data.RegisterAll(detDB)
	})
	return detDB
}

func assertTablesIdentical(t *testing.T, want, got *colstore.Table, label string) {
	t.Helper()
	if ok, why := colstore.TablesIdentical(want, got); !ok {
		t.Fatalf("%s: %s", label, why)
	}
}

// TestQueriesDeterministicAcrossWorkers runs all 22 TPC-H queries at
// 1, 2, 4, and 8 workers and requires byte-identical results. Each
// query's one planned tree serves every run. The work profile is
// TestSpansGolden's: it must match per operator from 2 workers up (one
// worker skips some partition and merge passes and charges less;
// EXPERIMENTS.md, "One worker charges less").
func TestQueriesDeterministicAcrossWorkers(t *testing.T) {
	db := determinismDB(t)
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			p, err := tpch.Query(db, q)
			if err != nil {
				t.Fatal(err)
			}
			base, err := db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				res, err := db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				assertTablesIdentical(t, base.Table, res.Table,
					fmt.Sprintf("Q%d workers=%d", q, w))
			}
		})
	}
}

// TestRunWithDefaults checks the worker-count plumbing: RunQuery with
// QueryOpts.Workers 0 uses the database default, and an unconfigured DB defaults to the
// runtime's CPU count.
func TestRunWithDefaults(t *testing.T) {
	db := engine.NewDB(engine.Config{Workers: 3})
	if got := db.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	if engine.NewDB(engine.Config{}).Workers() < 1 {
		t.Fatal("default Workers() must be at least 1")
	}
	bt := colstore.NewTableBuilder("t", colstore.Schema{{Name: "v", Type: colstore.Int64}})
	bt.Grow(1)
	bt.Int(0, 7)
	bt.EndRow()
	db.Register(bt.Build())
	res, err := db.RunQuery(context.Background(), &plan.Scan{Table: "t"}, engine.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Fatalf("got %d rows", res.Table.NumRows())
	}
}
