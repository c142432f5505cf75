package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
)

// MixEntry is one query in a load mix.
type MixEntry struct {
	// Name labels the query in reports (e.g. "q6").
	Name string
	// Plan is the query, typically planned once from SQL (tpch.Query);
	// every client runs this one tree, concurrently. Plan trees are
	// read-only during execution: per-run state such as a CTE's table
	// lives on the run's plan.Context.
	Plan plan.Node
}

// LoadConfig shapes one load-generation run.
type LoadConfig struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// QueriesPerClient is how many queries each client issues.
	QueriesPerClient int
	// Mix is the query set; each client draws from it with a seeded RNG.
	Mix []MixEntry
	// Tenants are assigned to clients round-robin; empty selects one
	// tenant named "loadgen".
	Tenants []string
	// Seed makes each client's query sequence reproducible.
	Seed int64
	// Verify compares every result byte-for-byte against a serial
	// baseline computed before the run; the first divergence fails the
	// run. This is the serving-path determinism check: admission,
	// pooling, caching, and fair-share interleaving must never change
	// result bytes.
	Verify bool
}

// LoadReport summarizes a load run. Latency percentiles come from the
// generator's own per-query samples (closed-loop, so they include
// queueing delay at the server).
type LoadReport struct {
	Clients   int
	Queries   int
	Errors    int
	CacheHits int
	Elapsed   time.Duration
	QPS       float64
	P50MS     float64
	P95MS     float64
	P99MS     float64
}

// RunLoad drives cfg.Clients concurrent clients through the server and
// reports throughput and latency. With cfg.Verify it first executes
// every mix entry serially on the underlying engine and then requires
// each served result to be byte-identical to that baseline.
func RunLoad(ctx context.Context, s *Server, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Clients < 1 || cfg.QueriesPerClient < 1 || len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("serve: load config needs clients, queries, and a mix")
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []string{"loadgen"}
	}

	var baseline []*colstore.Table
	if cfg.Verify {
		baseline = make([]*colstore.Table, len(cfg.Mix))
		for i, m := range cfg.Mix {
			res, err := s.db.RunQuery(ctx, m.Plan, engine.QueryOpts{})
			if err != nil {
				return nil, fmt.Errorf("serve: baseline %s: %w", m.Name, err)
			}
			baseline[i] = res.Table
		}
	}

	type sample struct {
		latency time.Duration
		hit     bool
		err     error
	}
	samples := make([][]sample, cfg.Clients)

	//lint:allow taintflow -- load-gen throughput is measured wall time, reported only
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			tenant := tenants[c%len(tenants)]
			out := make([]sample, 0, cfg.QueriesPerClient)
			for q := 0; q < cfg.QueriesPerClient; q++ {
				mi := rng.Intn(len(cfg.Mix))
				//lint:allow taintflow -- per-query latency sample, reported only
				t0 := time.Now()
				res, err := s.RunPlan(ctx, tenant, cfg.Mix[mi].Plan)
				sm := sample{latency: time.Since(t0), err: err}
				if err == nil {
					sm.hit = res.CacheHit
					if cfg.Verify {
						if ok, why := colstore.TablesIdentical(baseline[mi], res.Table); !ok {
							sm.err = fmt.Errorf("serve: %s diverged from serial baseline: %s", cfg.Mix[mi].Name, why)
						}
					}
				}
				out = append(out, sm)
			}
			samples[c] = out
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Clients: cfg.Clients,
		Elapsed: elapsed,
	}
	var lats []time.Duration
	var firstErr error
	for _, cs := range samples {
		for _, sm := range cs {
			rep.Queries++
			if sm.err != nil {
				rep.Errors++
				if firstErr == nil {
					firstErr = sm.err
				}
				continue
			}
			if sm.hit {
				rep.CacheHits++
			}
			lats = append(lats, sm.latency)
		}
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Queries-rep.Errors) / elapsed.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.P50MS = percentileMS(lats, 0.50)
	rep.P95MS = percentileMS(lats, 0.95)
	rep.P99MS = percentileMS(lats, 0.99)
	if firstErr != nil {
		return rep, firstErr
	}
	return rep, nil
}

// percentileMS reads the p-th percentile from sorted samples, in
// milliseconds.
func percentileMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i].Microseconds()) / 1000
}
