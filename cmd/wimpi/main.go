// Command wimpi is the single-node CLI of the WimPi OLAP engine: it
// generates a TPC-H dataset in memory and runs queries against it.
//
// Usage:
//
//	wimpi -sf 0.1 -q 6             # run one query
//	wimpi -sf 0.1 -q all           # run all 22
//	wimpi -sf 0.1 -q 3 -plan       # print the physical plan
//	wimpi -sf 0.1 -q 1 -explain    # EXPLAIN ANALYZE: span tree + simulated time
//	wimpi -sf 0.01 -q 3 -explain -mem-budget 64KB   # ... with the spill joiner's partitions
//	wimpi -sf 0.1 -q 1 -simulate   # show simulated per-hardware times
//	wimpi -sf 0.1 -q 6 -exec auto  # cost-model choice of vector vs fused pipelines
//	wimpi -sf 0.1 -sql "select count(*) as n from orders"
//	wimpi -sf 0.1 -sql-file q.sql -plan   # optimizer report + physical plan
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"wimpi/internal/engine"
	"wimpi/internal/hardware"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/snapshot"
	"wimpi/internal/spill"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.1, "TPC-H scale factor")
	seed := flag.Uint64("seed", 42, "dataset seed")
	query := flag.String("q", "all", "query number (1-22) or 'all'")
	sqlText := flag.String("sql", "", "run this SQL statement instead of a numbered query")
	sqlFile := flag.String("sql-file", "", "read a SQL statement from this file instead of a numbered query")
	workers := flag.Int("workers", 0, "engine parallelism (0 = one per core)")
	llc := flag.Int64("llc", 0, "LLC budget in bytes for radix-partitioned plans (0 = Pi-sized default, negative disables)")
	execMode := flag.String("exec", "vector", "execution mode: vector (operator-at-a-time), fused (compiled pipelines), or auto (cost-model pick per pipeline)")
	planOnly := flag.Bool("plan", false, "print the physical plan instead of executing")
	explain := flag.Bool("explain", false, "EXPLAIN ANALYZE: execute, then print the operator span tree with wall and simulated time")
	profileName := flag.String("profile", "Pi 3B+", "hardware profile attributed in -explain output (see hardware.Profiles)")
	simulate := flag.Bool("simulate", false, "print simulated runtimes for every Table I profile")
	rows := flag.Int("rows", 10, "result rows to print")
	save := flag.String("save", "", "after generating, snapshot the dataset to this directory")
	load := flag.String("load", "", "load the dataset from a snapshot directory instead of generating")
	metricsOut := flag.String("metrics-out", "", "write Prometheus-text metrics to this file before exiting")
	memBudget := flag.String("mem-budget", "", "per-query memory budget (e.g. 256MB); joins beyond it spill to disk, plans with nothing to spill are cancelled (empty = unbounded)")
	spillDir := flag.String("spill-dir", "", "directory for spill files under -mem-budget (empty = OS temp dir)")
	flag.Parse()

	mode, err := plan.ParseExecMode(*execMode)
	if err != nil {
		fatalf("%v", err)
	}
	var memBudgetBytes int64
	if *memBudget != "" {
		if memBudgetBytes, err = spill.ParseByteSize(*memBudget); err != nil {
			fatalf("%v", err)
		}
	}

	if *sqlText != "" && *sqlFile != "" {
		fatalf("-sql and -sql-file are mutually exclusive")
	}
	statement := *sqlText
	if *sqlFile != "" {
		b, err := os.ReadFile(*sqlFile)
		if err != nil {
			fatalf("%v", err)
		}
		statement = string(b)
	}

	var queries []int
	if statement == "" {
		if *query == "all" {
			queries = tpch.QueryNumbers()
		} else {
			n, err := strconv.Atoi(*query)
			if err != nil {
				fatalf("bad query %q", *query)
			}
			queries = []int{n}
		}
	}

	var explainProfile hardware.Profile
	if *explain {
		var err error
		if explainProfile, err = hardware.ByName(*profileName); err != nil {
			fatalf("%v", err)
		}
	}

	start := time.Now()
	var data *tpch.Dataset
	if *load != "" {
		fmt.Fprintf(os.Stderr, "loading snapshot %s ... ", *load)
		var err error
		data, err = snapshot.LoadDataset(*load)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "generating TPC-H SF %g ... ", *sf)
		data = tpch.Generate(tpch.Config{SF: *sf, Seed: *seed})
	}
	if *save != "" {
		if err := snapshot.SaveDataset(*save, data); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "(snapshot written to %s) ", *save)
	}
	db := engine.NewDB(engine.Config{
		Workers: *workers, TargetLLCBytes: *llc, Exec: mode,
		MemBudgetBytes: memBudgetBytes, SpillDir: *spillDir,
	})
	data.RegisterAll(db)
	fmt.Fprintf(os.Stderr, "done in %v (%.1f MB, %d workers)\n", time.Since(start).Round(time.Millisecond),
		float64(db.SizeBytes())/(1<<20), db.Workers())

	model := hardware.DefaultModel()
	profiles := hardware.Profiles()

	// runOne drives one plan through whichever output path the flags ask
	// for. choices is the SQL optimizer's chosen-vs-alternative report
	// (empty for hand-built plans, which carry no planning report).
	runOne := func(label string, node plan.Node, choices string) {
		if *planOnly {
			// Planned against the loaded catalog so auto-mode decisions
			// (which price pipelines from table statistics) are visible.
			fmt.Printf("-- %s --\n", label)
			if choices != "" {
				fmt.Print(choices)
			}
			fmt.Printf("%s\n", db.Explain(node))
			return
		}
		if *explain {
			res, err := db.RunTraced(node)
			if err != nil {
				fatalf("%s: %v", label, err)
			}
			out := obs.ExplainAnalyze(res.Root, obs.ExplainOptions{
				Profile: &explainProfile, Model: model,
			})
			fmt.Printf("-- %s (explain analyze): %d rows in %v (host) --\n",
				label, res.Table.NumRows(), res.HostDuration.Round(time.Microsecond))
			if choices != "" {
				fmt.Print(choices)
			}
			fmt.Printf("%s\n", out)
			return
		}
		res, err := db.RunQuery(context.Background(), node, engine.QueryOpts{})
		if err != nil {
			fatalf("%s: %v", label, err)
		}
		fmt.Printf("-- %s: %d rows in %v (host) --\n", label, res.Table.NumRows(),
			res.HostDuration.Round(time.Microsecond))
		if *rows > 0 {
			fmt.Print(engine.FormatTable(res.Table, *rows))
		}
		if *simulate {
			fmt.Println("simulated runtimes:")
			for i := range profiles {
				p := &profiles[i]
				d := model.QueryTime(p, res.Counters, p.TotalCores())
				fmt.Printf("  %-12s %10.3fs\n", p.Name, d.Seconds())
			}
		}
		fmt.Println()
	}

	if statement != "" {
		pl, err := sql.Plan(db, statement, sql.Options{
			LLCBytes: *llc, UniqueKeys: tpch.TableKeys(),
		})
		if err != nil {
			fatalf("%v", err)
		}
		runOne("sql", pl.Node, obs.RenderPlanChoices(pl.Report.Choices))
	}
	for _, q := range queries {
		node, err := tpch.Query(q)
		if err != nil {
			fatalf("%v", err)
		}
		runOne(fmt.Sprintf("Q%d", q), node, "")
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
	}
}

func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wimpi: "+format+"\n", args...)
	os.Exit(1)
}
