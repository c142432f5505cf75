// Example quickstart: generate a small TPC-H dataset, build a query plan
// with the engine's public operator API, execute it, and simulate how
// long it would take on a Raspberry Pi 3B+ versus a Xeon server.
package main

import (
	"context"
	"fmt"
	"log"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

func main() {
	// 1. Generate a deterministic TPC-H dataset (SF 0.01 = ~60k
	//    lineitem rows) and register it with an in-memory engine.
	data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 1})
	db := engine.NewDB(engine.Config{Workers: 2})
	data.RegisterAll(db)
	fmt.Printf("loaded %v tables, %.1f MB\n", db.TableNames(), float64(db.SizeBytes())/(1<<20))

	// 2. Build a plan by hand: revenue per ship mode for 1995 shipments.
	//    (Any SQL-shaped pipeline composes from Scan/Filter/Join/GroupBy/
	//    OrderBy nodes; package tpch contains all 22 TPC-H plans.)
	p := &plan.OrderBy{
		Keys: []exec.SortKey{{Column: "revenue", Desc: true}},
		Input: &plan.GroupBy{
			Input: &plan.Scan{
				Table:   "lineitem",
				Columns: []string{"l_shipmode", "l_extendedprice", "l_discount", "l_shipdate"},
				Pred: exec.DateRange{
					Column: "l_shipdate",
					Lo:     colstore.MustDate("1995-01-01"),
					Hi:     colstore.MustDate("1996-01-01"),
				},
			},
			Keys: []string{"l_shipmode"},
			Aggs: []plan.AggSpec{
				{Name: "revenue", Func: plan.Sum,
					Arg: exec.Mul(exec.Col{Name: "l_extendedprice"},
						exec.Sub(exec.ConstF{V: 1}, exec.Col{Name: "l_discount"}))},
				{Name: "shipments", Func: plan.Count},
			},
		},
	}
	fmt.Println("\nplan:")
	fmt.Print(db.Explain(p))

	// 3. Execute and inspect the result.
	res, err := db.RunQuery(context.Background(), p, engine.QueryOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nresult:")
	fmt.Print(engine.FormatTable(res.Table, 10))

	// 4. The work counters recorded during execution feed the hardware
	//    model: what would this query cost on the paper's machines?
	model := hardware.DefaultModel()
	pi := hardware.Pi()
	e5, _ := hardware.ByName("op-e5")
	tPi := model.QueryTime(&pi, res.Counters, pi.TotalCores())
	tE5 := model.QueryTime(&e5, res.Counters, e5.TotalCores())
	fmt.Printf("\nsimulated: Pi 3B+ %.3fs, op-e5 %.3fs (Pi %.1fx slower, %.0fx cheaper)\n",
		tPi.Seconds(), tE5.Seconds(), tPi.Seconds()/tE5.Seconds(), 2*e5.MSRPUSD/35)
}
