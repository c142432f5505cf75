// Example costreport: the paper's Section III analysis as a library
// call — run a workload once, then rank every Table I machine by
// absolute speed, purchase-price efficiency, and energy efficiency.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"wimpi/internal/engine"
	"wimpi/internal/hardware"
	"wimpi/internal/tpch"
)

func main() {
	data := tpch.Generate(tpch.Config{SF: 0.05, Seed: 42})
	db := engine.NewDB(engine.Config{Workers: 2})
	data.RegisterAll(db)

	// The workload: the paper's eight representative queries.
	model := hardware.DefaultModel()
	profiles := hardware.Profiles()
	total := make(map[string]time.Duration)
	for _, q := range tpch.RepresentativeQueries {
		res, err := db.RunQuery(context.Background(), tpch.MustQuery(db, q), engine.QueryOpts{})
		if err != nil {
			log.Fatal(err)
		}
		for i := range profiles {
			p := &profiles[i]
			total[p.Name] += model.QueryTime(p, res.Counters, p.TotalCores())
		}
	}

	fmt.Println("workload: TPC-H Q1,3,4,5,6,13,14,19 (simulated totals)")
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] < total[names[j]] })
	fmt.Println("\nby absolute runtime:")
	for _, n := range names {
		fmt.Printf("  %-12s %8.3fs\n", n, total[n].Seconds())
	}

	pi := total["Pi 3B+"]
	fmt.Println("\nPi 3B+ vs the On-Premises servers (the paper's Figures 5 and 7):")
	for _, name := range []string{"op-e5", "op-gold"} {
		p, err := hardware.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		msrp, err := hardware.Improvement((*hardware.Profile).MSRP, pi, 1, total[name], &p)
		if err != nil {
			log.Fatal(err)
		}
		energy, err := hardware.Improvement((*hardware.Profile).Watts, pi, 1, total[name], &p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  vs %-8s %5.1fx slower, but %5.1fx better per dollar, %5.1fx better per joule\n",
			name, pi.Seconds()/total[name].Seconds(), msrp, energy)
	}

	fmt.Println("\nPi 3B+ vs the Cloud instances (the paper's Figure 6, hourly):")
	for _, p := range hardware.CloudProfiles() {
		p := p
		hourly, err := hardware.Improvement((*hardware.Profile).Hourly, pi, 1, total[p.Name], &p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  vs %-12s %8.0fx better per dollar-hour\n", p.Name, hourly)
	}
}
