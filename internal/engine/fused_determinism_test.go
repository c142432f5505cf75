package engine_test

// Fused-engine parity suite: every TPC-H query must produce
// byte-identical results under fused and auto execution, at every worker
// count, against the vector baseline. The fused compiler feeds the same
// key vectors, the same sink kernels, and the same planning decisions
// (radix vs chained build, Bloom pre-filter threshold) as the vector
// path, so the result bytes — floating-point sums included — must never
// diverge.

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
		for _, mode := range []plan.ExecMode{plan.ExecVector, plan.ExecFused, plan.ExecAuto} {
			db := engine.NewDB(engine.Config{Exec: mode})
			fusedData.RegisterAll(db)
			fusedDBs[mode] = db
		}
	})
	return fusedDBs
}

// TestQueriesFusedMatchVector runs all 22 TPC-H queries under fused and
// auto execution at 1, 2, 4, and 8 workers and requires byte-identical
// results against the single-worker vector baseline.
func TestQueriesFusedMatchVector(t *testing.T) {
	dbs := fusedModeDBs(t)
	for _, q := range tpch.QueryNumbers() {
		q := q
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			p, err := tpch.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			base, err := dbs[plan.ExecVector].RunQuery(context.Background(), p, engine.QueryOpts{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []plan.ExecMode{plan.ExecFused, plan.ExecAuto} {
				for _, w := range []int{1, 2, 4, 8} {
					res, err := dbs[mode].RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", mode, w, err)
					}
					assertTablesIdentical(t, base.Table, res.Table,
						fmt.Sprintf("Q%d %s workers=%d vs vector baseline", q, mode, w))
				}
			}
		})
	}
}

// TestFusedTracedMatchesRun checks that tracing a fused execution does
// not perturb its results, and that the span tree surfaces the
// fused-pipeline operator with its mode decision.
func TestFusedTracedMatchesRun(t *testing.T) {
	dbs := fusedModeDBs(t)
	p, err := tpch.Query(6)
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
		if sp.Op == "fused-pipeline" && strings.Contains(sp.Label, "fused:") {
			found = true
		}
	})
	if !found {
		t.Error("traced fused execution should surface a fused-pipeline span labeled with its mode decision")
	}
}
