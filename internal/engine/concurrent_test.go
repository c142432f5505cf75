package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/plan"
)

// TestConcurrentQueries exercises the DB's concurrent read path: many
// goroutines run the same aggregation simultaneously (each with its own
// counters) and must all see the same answer. Run with -race to check
// for data races in the shared column storage.
func TestConcurrentQueries(t *testing.T) {
	db := NewDB(Config{Workers: 2})
	b := colstore.NewTableBuilder("nums", colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "v", Type: colstore.Float64},
	})
	var want float64
	for i := 0; i < 50000; i++ {
		b.Int(0, int64(i%7))
		b.Float(1, float64(i%100))
		if i%7 == 3 {
			want += float64(i % 100)
		}
		b.EndRow()
	}
	db.Register(b.Build())

	p := &plan.GroupBy{
		Input: &plan.Scan{Table: "nums", Pred: exec.CmpI{Column: "k", Op: exec.Eq, V: 3}},
		Aggs:  []plan.AggSpec{{Name: "s", Func: plan.Sum, Arg: exec.Col{Name: "v"}}},
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	sums := make([]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				res, err := db.RunQuery(context.Background(), p, QueryOpts{})
				if err != nil {
					errs[g] = err
					return
				}
				sums[g] = res.Table.MustCol("s").(*colstore.Float64s).V[0]
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if sums[g] != want {
			t.Fatalf("goroutine %d saw %g, want %g", g, sums[g], want)
		}
	}
}

// TestConcurrentRegisterAndQuery checks that registration under the
// DB's lock does not corrupt concurrent reads of other tables.
func TestConcurrentRegisterAndQuery(t *testing.T) {
	db := NewDB(Config{Workers: 1})
	mk := func(name string, n int) *colstore.Table {
		b := colstore.NewTableBuilder(name, colstore.Schema{{Name: "v", Type: colstore.Int64}})
		for i := 0; i < n; i++ {
			b.Int(0, int64(i))
			b.EndRow()
		}
		return b.Build()
	}
	db.Register(mk("stable", 1000))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.Register(mk("churn", 10+i%5))
			i++
		}
	}()
	for q := 0; q < 50; q++ {
		res, err := db.RunQuery(context.Background(), &plan.GroupBy{
			Input: &plan.Scan{Table: "stable"},
			Aggs:  []plan.AggSpec{{Name: "n", Func: plan.Count}},
		}, QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.MustCol("n").(*colstore.Int64s).V[0] != 1000 {
			t.Fatal("stable table changed under concurrent registration")
		}
	}
	close(stop)
	wg.Wait()
}

// mixedTables builds two tables exercising every column type the
// engine serves concurrently — including dictionary strings, whose
// shared Dict is the most race-prone structure in the column store.
func mixedTables() (*colstore.Table, *colstore.Table) {
	ob := colstore.NewTableBuilder("corders", colstore.Schema{
		{Name: "o_cust", Type: colstore.Int64},
		{Name: "o_total", Type: colstore.Float64},
		{Name: "o_status", Type: colstore.String},
	})
	statuses := []string{"OPEN", "DONE", "HOLD", "SHIP"}
	for i := 0; i < 80_000; i++ {
		ob.Int(0, int64(i%500))
		ob.Float(1, float64(i%1000))
		ob.Str(2, statuses[i%len(statuses)])
		ob.EndRow()
	}
	cb := colstore.NewTableBuilder("ccust", colstore.Schema{
		{Name: "c_id", Type: colstore.Int64},
		{Name: "c_name", Type: colstore.String},
	})
	for i := 0; i < 500; i++ {
		cb.Int(0, int64(i))
		cb.Str(1, fmt.Sprintf("cust-%03d", i))
		cb.EndRow()
	}
	return ob.Build(), cb.Build()
}

// concurrentPlans returns two structurally different queries over the
// shared tables: a string-keyed aggregation with a string sort, and a
// join with a numeric sort. Run with -race.
func concurrentPlans() (a, b plan.Node) {
	a = &plan.OrderBy{
		Input: &plan.GroupBy{
			Input: &plan.Scan{Table: "corders"},
			Keys:  []string{"o_status"},
			Aggs:  []plan.AggSpec{{Name: "total", Func: plan.Sum, Arg: exec.Col{Name: "o_total"}}},
		},
		Keys: []exec.SortKey{{Column: "o_status"}},
	}
	b = &plan.OrderBy{
		Input: &plan.GroupBy{
			Input: &plan.HashJoin{
				Build:     &plan.Scan{Table: "ccust"},
				BuildKeys: []string{"c_id"},
				Probe:     &plan.Scan{Table: "corders", Pred: exec.CmpF{Column: "o_total", Op: exec.Ge, V: 500}},
				ProbeKeys: []string{"o_cust"},
			},
			Keys: []string{"c_name"},
			Aggs: []plan.AggSpec{{Name: "n", Func: plan.Count}},
		},
		Keys: []exec.SortKey{{Column: "n", Desc: true}, {Column: "c_name"}},
	}
	return a, b
}

// TestConcurrentDistinctQueries runs two different queries (string
// aggregation+sort, join+sort) simultaneously on one engine, repeatedly,
// and requires every result byte-identical to its serial baseline.
func TestConcurrentDistinctQueries(t *testing.T) {
	db := NewDB(Config{Workers: 4})
	to, tc := mixedTables()
	db.Register(to)
	db.Register(tc)
	pa, pb := concurrentPlans()

	baseA, err := db.RunQuery(context.Background(), pa, QueryOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := db.RunQuery(context.Background(), pb, QueryOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, base := pa, baseA
			if g%2 == 1 {
				p, base = pb, baseB
			}
			for iter := 0; iter < 4; iter++ {
				res, err := db.RunQuery(context.Background(), p, QueryOpts{})
				if err != nil {
					errs <- err
					return
				}
				if ok, why := colstore.TablesIdentical(base.Table, res.Table); !ok {
					errs <- fmt.Errorf("goroutine %d iter %d diverged: %s", g, iter, why)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRunQueryPool is the serving-path version: concurrent
// RunQuery calls interleave over one shared worker pool with mixed
// weights and memory budgets, byte-identical to serial execution.
func TestConcurrentRunQueryPool(t *testing.T) {
	pool := exec.NewPool(3)
	defer pool.Close()
	db := NewDB(Config{Workers: 4, Pool: pool})
	to, tc := mixedTables()
	db.Register(to)
	db.Register(tc)
	pa, pb := concurrentPlans()

	baseA, err := db.RunQuery(context.Background(), pa, QueryOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := db.RunQuery(context.Background(), pb, QueryOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, base := pa, baseA
			if g%2 == 1 {
				p, base = pb, baseB
			}
			opts := QueryOpts{Weight: 1 + g%3}
			for iter := 0; iter < 3; iter++ {
				res, err := db.RunQuery(context.Background(), p, opts)
				if err != nil {
					errs <- err
					return
				}
				if ok, why := colstore.TablesIdentical(base.Table, res.Table); !ok {
					errs <- fmt.Errorf("goroutine %d iter %d diverged under pool: %s", g, iter, why)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
