package engine_test

// Radix-path identity suite: the cache-conscious partitioned group-by
// must be byte-identical to the direct one on every TPC-H query, at every
// worker count. TargetLLCBytes is the only knob varied — it changes which
// plan runs, never its result.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

var (
	radixOnce   sync.Once
	radixDetDB  *engine.DB // tiny LLC budget: forces the radix paths
	directDetDB *engine.DB // negative budget: partitioned paths disabled
)

func radixIdentityDBs(t *testing.T) (*engine.DB, *engine.DB) {
	t.Helper()
	radixOnce.Do(func() {
		data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
		// 16 KiB is far below any real LLC; every sizable group-by whose
		// keys arrive unclustered takes the partitioned path.
		radixDetDB = engine.NewDB(engine.Config{TargetLLCBytes: 1 << 14})
		directDetDB = engine.NewDB(engine.Config{TargetLLCBytes: -1})
		data.RegisterAll(radixDetDB)
		data.RegisterAll(directDetDB)
	})
	return radixDetDB, directDetDB
}

// TestRadixPlansByteIdentical runs all 22 queries under a forced-radix
// engine and a radix-disabled engine and requires byte-identical result
// tables at 1, 2, 4, and 8 workers.
func TestRadixPlansByteIdentical(t *testing.T) {
	radix, direct := radixIdentityDBs(t)
	sawPartition := false
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			p, err := tpch.Query(direct, q)
			if err != nil {
				t.Fatal(err)
			}
			base, err := direct.RunQuery(context.Background(), p, engine.QueryOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if base.Counters.PartitionBytes != 0 {
				t.Fatalf("Q%d: radix-disabled engine still partitioned (%d bytes)",
					q, base.Counters.PartitionBytes)
			}
			for _, w := range []int{1, 2, 4, 8} {
				res, err := radix.RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				assertTablesIdentical(t, base.Table, res.Table,
					fmt.Sprintf("Q%d radix workers=%d", q, w))
				if res.Counters.PartitionBytes > 0 {
					sawPartition = true
				}
			}
		})
	}
	// At this scale the only TPC-H operators large enough to partition are
	// Q18's and Q21's group-bys, and their keys arrive clustered: they take
	// the order-aware path whatever the budget. A high-cardinality key that
	// arrives in no order keeps the radix group-by under this suite.
	t.Run("unclustered group-by", func(t *testing.T) {
		p := &plan.GroupBy{
			Input: &plan.Scan{Table: "lineitem", Columns: []string{"l_partkey", "l_quantity"}},
			Keys:  []string{"l_partkey"},
			Aggs: []plan.AggSpec{
				{Name: "n", Func: plan.Count},
				{Name: "qty", Func: plan.Sum, Arg: exec.Col{Name: "l_quantity"}},
			},
		}
		base, err := direct.RunQuery(context.Background(), p, engine.QueryOpts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			res, err := radix.RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			assertTablesIdentical(t, base.Table, res.Table, fmt.Sprintf("unclustered group-by radix workers=%d", w))
			if res.Counters.PartitionBytes > 0 {
				sawPartition = true
			}
		}
	})
	if !sawPartition {
		t.Error("no query took a partitioned path — the forced-radix budget is not forcing")
	}
}

// TestRadixPlansDeterministicAcrossWorkers pins re-dispatch determinism
// for the partitioned paths specifically: under the forced-radix engine,
// every query is byte-identical across worker counts (partitions are
// morsels; their schedule cannot leak into results).
func TestRadixPlansDeterministicAcrossWorkers(t *testing.T) {
	radix, _ := radixIdentityDBs(t)
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			p, err := tpch.Query(radix, q)
			if err != nil {
				t.Fatal(err)
			}
			base, err := radix.RunQuery(context.Background(), p, engine.QueryOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				res, err := radix.RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				assertTablesIdentical(t, base.Table, res.Table,
					fmt.Sprintf("Q%d radix workers=%d", q, w))
			}
		})
	}
}
