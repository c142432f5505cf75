package plan

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// cancelCatalog builds a join workload large enough that every pipeline
// stage — scan, join build, join probe, group-by, sort — does real
// morsel-parallel work.
func cancelCatalog() memCatalog {
	const nOrders, nCust = 120_000, 4_000
	ob := colstore.NewTableBuilder("orders", colstore.Schema{
		{Name: "o_cust", Type: colstore.Int64},
		{Name: "o_total", Type: colstore.Float64},
	})
	for i := 0; i < nOrders; i++ {
		ob.Int(0, int64(i%nCust))
		ob.Float(1, float64(i%997))
		ob.EndRow()
	}
	cb := colstore.NewTableBuilder("cust", colstore.Schema{
		{Name: "c_id", Type: colstore.Int64},
		{Name: "c_region", Type: colstore.Int64},
	})
	for i := 0; i < nCust; i++ {
		cb.Int(0, int64(i))
		cb.Int(1, int64(i%13))
		cb.EndRow()
	}
	return memCatalog{"orders": ob.Build(), "cust": cb.Build()}
}

// cancelPlan joins, aggregates, and sorts — exercising every stage the
// cancellation test targets.
func cancelPlan() Node {
	return &OrderBy{
		Input: &GroupBy{
			Input: &HashJoin{
				Build:     &Scan{Table: "cust"},
				BuildKeys: []string{"c_id"},
				Probe:     &Scan{Table: "orders"},
				ProbeKeys: []string{"o_cust"},
			},
			Keys: []string{"c_region"},
			Aggs: []AggSpec{{Name: "total", Func: Sum, Arg: exec.Col{Name: "o_total"}}},
		},
		Keys: []exec.SortKey{{Column: "total", Desc: true}},
	}
}

// TestCancelAtEachStage cancels a query the instant each pipeline stage
// begins, and requires: the cancellation cause (not a mangled result)
// comes back, no goroutines leak, and an immediately-following clean
// run of the same shared plan tree is byte-identical to the baseline —
// a cancelled run must leave no partial state behind in the plan.
func TestCancelAtEachStage(t *testing.T) {
	cat := cancelCatalog()
	p := cancelPlan()

	baselineRes, err := RunContext(&Context{Cat: cat, Workers: 4, Trace: &obs.Tracer{}}, p)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	baselineRes.Root.Walk(func(sp *obs.Span, _ int) { seen[sp.Op] = true })

	stages := []string{"scan", "join-build", "join-probe", "group-by", "sort"}
	for _, stage := range stages {
		if !seen[stage] {
			t.Fatalf("baseline trace never opened a %q span; stages seen: %v", stage, seen)
		}
	}

	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			before := runtime.NumGoroutine()
			stdCtx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hook := &obs.Tracer{Hook: func(op, label string) {
				if op == stage {
					cancel()
				}
			}}
			pctx := &Context{Cat: cat, Workers: 4, Ctx: stdCtx, Trace: hook}
			res, err := RunContext(pctx, p)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel at %s: err = %v, want context.Canceled", stage, err)
			}
			if res != nil {
				t.Fatalf("cancel at %s: got a result alongside the error", stage)
			}
			waitGoroutines(t, before)

			// The shared plan tree must be reusable after a cancelled run.
			clean, err := RunContext(&Context{Cat: cat, Workers: 4}, p)
			if err != nil {
				t.Fatalf("clean run after cancel at %s: %v", stage, err)
			}
			if ok, why := colstore.TablesIdentical(baselineRes.Table, clean.Table); !ok {
				t.Fatalf("result corrupted after cancel at %s: %s", stage, why)
			}
		})
	}
}

// TestMemLimitCancelsQuery: a query whose live intermediates exceed the
// budget fails with *MemLimitError; an unlimited run still succeeds.
func TestMemLimitCancelsQuery(t *testing.T) {
	cat := cancelCatalog()
	p := cancelPlan()
	_, err := RunContext(&Context{Cat: cat, Workers: 2, MemLimitBytes: 1 << 10}, p)
	var mem *MemLimitError
	if !errors.As(err, &mem) {
		t.Fatalf("err = %v, want *MemLimitError", err)
	}
	if mem.Observed <= mem.Limit {
		t.Fatalf("MemLimitError observed %d <= limit %d", mem.Observed, mem.Limit)
	}
	if _, err := RunContext(&Context{Cat: cat, Workers: 2}, p); err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
}

// TestCancelBeforeRun: a context cancelled before execution returns its
// cause without running anything.
func TestCancelBeforeRun(t *testing.T) {
	cat := cancelCatalog()
	stdCtx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(&Context{Cat: cat, Workers: 4, Ctx: stdCtx}, cancelPlan())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
