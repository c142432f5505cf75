// Command wimpi-serve runs the multi-tenant serving runtime over an
// in-memory TPC-H dataset: an HTTP front door with admission control, a
// shared fair-share morsel worker pool, per-tenant rate limits and
// memory budgets, and a plan-fingerprint result cache.
//
// Usage:
//
//	wimpi-serve [-sf 0.1] [-workers N] [-addr :8080] [-cache 64]
//
// Load-generator mode drives a concurrent TPC-H mix against the
// serving path in-process and reports QPS and latency percentiles
// instead of listening:
//
//	wimpi-serve -load -sf 0.1 -clients 64 -queries 20 \
//	    -mix 1,3,6,13 -bench-out BENCH_serve.json
//
// In -load mode every result is verified byte-identical to a serial
// execution of the same plan; any divergence or error fails the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/serve"
	"wimpi/internal/spill"
	"wimpi/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.1, "TPC-H scale factor to generate and register")
	seed := flag.Uint64("seed", 42, "dataset seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "shared morsel pool size")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	cache := flag.Int("cache", 64, "result cache entries (0 disables)")
	maxConc := flag.Int("max-concurrent", 0, "admitted queries bound (0 = worker count)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue bound (0 = 4x concurrent)")

	load := flag.Bool("load", false, "run the load generator in-process and exit")
	clients := flag.Int("clients", 64, "load: concurrent clients")
	queries := flag.Int("queries", 20, "load: queries per client")
	mix := flag.String("mix", "1,3,6,13", "load: comma-separated TPC-H query numbers")
	tenants := flag.Int("tenants", 4, "load: tenants to spread clients across")
	loadSeed := flag.Int64("load-seed", 1, "load: client RNG seed")
	benchOut := flag.String("bench-out", "", "load: write the report JSON here")
	maxP99 := flag.Float64("max-p99-ms", 0, "load: fail if p99 latency exceeds this many ms (0 = unchecked)")
	memBudget := flag.String("mem-budget", "", "per-query memory budget (e.g. 256MB); joins beyond it spill to disk, plans with nothing to spill are cancelled (empty = unbounded)")
	spillDir := flag.String("spill-dir", "", "directory for spill files under -mem-budget (empty = OS temp dir)")
	flag.Parse()

	var memBudgetBytes int64
	if *memBudget != "" {
		var err error
		if memBudgetBytes, err = spill.ParseByteSize(*memBudget); err != nil {
			fatalf("%v", err)
		}
	}

	if *load && *maxQueue == 0 {
		// Closed-loop clients have at most one query outstanding each, so
		// a queue bound of the client count can never shed load; the
		// default 4x-concurrency bound is for open-loop floods.
		*maxQueue = *clients
	}

	fmt.Fprintf(os.Stderr, "generating TPC-H sf=%g...\n", *sf)
	ds := tpch.Generate(tpch.Config{SF: *sf, Seed: *seed})
	pool := exec.NewPool(*workers)
	defer pool.Close()
	db := engine.NewDB(engine.Config{
		Workers: *workers, Pool: pool,
		MemBudgetBytes: memBudgetBytes, SpillDir: *spillDir,
	})
	ds.RegisterAll(db)

	srv := serve.New(serve.Config{
		DB:            db,
		MaxConcurrent: *maxConc,
		MaxQueue:      *maxQueue,
		CacheEntries:  *cache,
		UniqueKeys:    tpch.TableKeys(),
	})

	if *load {
		runLoad(srv, *clients, *queries, *mix, *tenants, *loadSeed, *benchOut, *maxP99)
		return
	}

	fmt.Fprintf(os.Stderr, "serving %d tables (%d MB) on %s\n",
		len(db.TableNames()), db.SizeBytes()>>20, *addr)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	if err := hs.ListenAndServe(); err != nil {
		fatalf("%v", err)
	}
}

func runLoad(srv *serve.Server, clients, queries int, mix string, tenants int, seed int64, benchOut string, maxP99 float64) {
	var entries []serve.MixEntry
	for _, s := range strings.Split(mix, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatalf("bad mix entry %q", s)
		}
		q, err := tpch.Query(n)
		if err != nil {
			fatalf("%v", err)
		}
		entries = append(entries, serve.MixEntry{Name: fmt.Sprintf("q%d", n), Plan: q})
	}
	var names []string
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant%d", i)
		srv.SetTenant(serve.TenantConfig{Name: name, Weight: 1 + i%2})
		names = append(names, name)
	}
	rep, err := serve.RunLoad(context.Background(), srv, serve.LoadConfig{
		Clients:          clients,
		QueriesPerClient: queries,
		Mix:              entries,
		Tenants:          names,
		Seed:             seed,
		Verify:           true,
	})
	if rep != nil {
		fmt.Printf("clients=%d queries=%d errors=%d cache_hits=%d qps=%.1f p50=%.2fms p95=%.2fms p99=%.2fms\n",
			rep.Clients, rep.Queries, rep.Errors, rep.CacheHits, rep.QPS, rep.P50MS, rep.P95MS, rep.P99MS)
	}
	if err != nil {
		fatalf("load run failed: %v", err)
	}
	if maxP99 > 0 && rep.P99MS > maxP99 {
		fatalf("p99 %.2fms exceeds the %.0fms bound", rep.P99MS, maxP99)
	}
	if benchOut != "" {
		if err := serve.WriteBenchJSON(benchOut, rep); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", benchOut)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wimpi-serve: "+format+"\n", args...)
	os.Exit(1)
}
