package engine_test

// Fused-engine parity suite: every TPC-H query must produce
// byte-identical results under fused execution, at every worker count,
// against the vector baseline. The fused compiler feeds the same
// key vectors, the same sink kernels, and the same planning decisions
// (one buildJoin picks every join layout) as the vector path, so the
// result bytes — floating-point sums included — must never diverge.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"wimpi/internal/engine"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

var (
	fusedOnce sync.Once
	fusedData *tpch.Dataset
	fusedDBs  map[plan.ExecMode]*engine.DB
)

func fusedModeDBs(t *testing.T) map[plan.ExecMode]*engine.DB {
	t.Helper()
	fusedOnce.Do(func() {
		fusedData = tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
		fusedDBs = map[plan.ExecMode]*engine.DB{}
		for _, mode := range []plan.ExecMode{plan.ExecVector, plan.ExecFused} {
			db := engine.NewDB(engine.Config{Exec: mode})
			fusedData.RegisterAll(db)
			fusedDBs[mode] = db
		}
	})
	return fusedDBs
}

// TestQueriesFusedMatchVector runs all 22 TPC-H queries under fused
// execution at 1, 2, 4, and 8 workers and requires byte-identical
// results against the single-worker vector baseline.
func TestQueriesFusedMatchVector(t *testing.T) {
	dbs := fusedModeDBs(t)
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			p, err := tpch.Query(dbs[plan.ExecVector], q)
			if err != nil {
				t.Fatal(err)
			}
			base, err := dbs[plan.ExecVector].RunQuery(context.Background(), p, engine.QueryOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				res, err := dbs[plan.ExecFused].RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
				if err != nil {
					t.Fatalf("fused workers=%d: %v", w, err)
				}
				assertTablesIdentical(t, base.Table, res.Table,
					fmt.Sprintf("Q%d fused workers=%d vs vector baseline", q, w))
			}
		})
	}
}

// TestFusedTracedMatchesRun checks that tracing a fused execution does
// not perturb its results, and that the span tree surfaces the
// fused-pipeline operator labeled with its pipeline shape.
func TestFusedTracedMatchesRun(t *testing.T) {
	dbs := fusedModeDBs(t)
	p, err := tpch.Query(dbs[plan.ExecVector], 6)
	if err != nil {
		t.Fatal(err)
	}
	base, err := dbs[plan.ExecVector].RunQuery(context.Background(), p, engine.QueryOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dbs[plan.ExecFused].RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesIdentical(t, base.Table, res.Table, "Q6 fused traced vs vector")
	found := false
	res.Root.Walk(func(sp *obs.Span, _ int) {
		if sp.Op == "fused-pipeline" && strings.HasPrefix(sp.Label, "fused pipeline ") {
			found = true
		}
	})
	if !found {
		t.Error("traced fused execution should surface a fused-pipeline span labeled \"fused pipeline <shape>\"")
	}
}
