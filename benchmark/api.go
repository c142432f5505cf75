package main

// Every call the benchmark makes into the program is in this file, so a
// later API change has one place to look. The rest of the package sees
// only these aliases and wrappers.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"wimpi/internal/cluster"
	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/serve"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

type (
	table     = colstore.Table
	counters  = exec.Counters
	opSpan    = obs.Span
	dataset   = tpch.Dataset
	database  = engine.DB
	planNode  = plan.Node
	breakdown = hardware.Breakdown
	registry  = obs.Registry
)

// generate builds the TPC-H dataset every workload runs on.
func generate(sf float64, seed uint64) *dataset {
	return tpch.Generate(tpch.Config{SF: sf, Seed: seed})
}

// dbConfig is the part of engine.Config the workloads vary.
type dbConfig struct {
	workers   int
	fused     bool
	memBudget int64
	spillDir  string
	pool      *exec.Pool
}

// newDB returns a database over ds.
func newDB(ds *dataset, c dbConfig) *database {
	cfg := engine.Config{Workers: c.workers, MemBudgetBytes: c.memBudget, SpillDir: c.spillDir, Pool: c.pool}
	if c.fused {
		cfg.Exec = plan.ExecFused
	}
	db := engine.NewDB(cfg)
	ds.RegisterAll(db)
	return db
}

// datasetBytes is the column data footprint of ds.
func datasetBytes(ds *dataset) int64 { return ds.SizeBytes() }

// residentBytes is the footprint of the registered tables.
func residentBytes(db *database) int64 { return db.SizeBytes() }

// sqlText returns query q's statement with the validation parameters.
func sqlText(q int) (string, error) { return tpch.SQL(q) }

// sqlVariant returns query q's statement with parameters drawn from
// variantSeed.
func sqlVariant(q int, variantSeed uint64) (string, error) {
	return tpch.SQLP(q, tpch.RandomParams(variantSeed))
}

// clusterQueries is the statement set the cluster workload ships.
func clusterQueries() []int { return tpch.RepresentativeQueries }

// planSQL is what `wimpi -sql` does before running a statement. Plans
// memoize CTEs per call, so every operation plans afresh.
func planSQL(db *database, text string) (planNode, error) {
	p, err := sql.Plan(db, text, sql.Options{UniqueKeys: tpch.TableKeys()})
	if err != nil {
		return nil, err
	}
	return p.Node, nil
}

// planServed plans the way serve.RunSQL does behind POST /query (empty
// options), so split timings add up to the handler's and fingerprints
// match the handler's cache entries.
func planServed(db *database, text string) (planNode, error) {
	p, err := sql.Plan(db, text, sql.Options{})
	if err != nil {
		return nil, err
	}
	return p.Node, nil
}

func parseSQL(text string) error {
	_, err := sql.Parse(text)
	return err
}

func distributeSQL(text string) error {
	_, err := sql.Distribute(text)
	return err
}

func fingerprint(n planNode) string { return plan.Fingerprint(n) }

// runResult is one single-node execution.
type runResult struct {
	table    *table
	counters counters
	root     *opSpan // traced runs only
}

// runQuery executes a plan untraced; workers < 1 selects the database
// default.
func runQuery(db *database, n planNode, workers int) (runResult, error) {
	res, err := db.RunQuery(context.Background(), n, engine.QueryOpts{Workers: workers})
	if err != nil {
		return runResult{}, err
	}
	return runResult{table: res.Table, counters: res.Counters}, nil
}

// runTraced executes a plan with the program's own operator spans.
func runTraced(db *database, n planNode) (runResult, error) {
	res, err := db.RunTraced(n)
	if err != nil {
		return runResult{}, err
	}
	return runResult{table: res.Table, counters: res.Counters, root: res.Root}, nil
}

func identical(a, b *table) (bool, string) { return colstore.TablesIdentical(a, b) }

// simulatePi prices a work profile on the Pi 3B+ with all four cores —
// the paper's Table II number.
func simulatePi(c counters) breakdown {
	pi := hardware.Pi()
	return hardware.DefaultModel().Explain(&pi, c, 4)
}

// simTerms names the simulated Pi time of b and its resource terms, in ms.
func simTerms(b breakdown) map[string]float64 {
	return map[string]float64{
		"sim_pi_ms":        b.Total * 1e3,
		"sim_cpu_ms":       b.CPUSeconds * 1e3,
		"sim_mem_seq_ms":   b.MemSeqSeconds * 1e3,
		"sim_mem_rand_ms":  b.MemRandSeconds * 1e3,
		"sim_mem_cache_ms": b.MemCacheSeconds * 1e3,
		"sim_partition_ms": b.PartitionSeconds * 1e3,
		"sim_merge_ms":     b.MergeSeconds * 1e3,
		"sim_swap_ms":      b.SwapSeconds * 1e3,
		"sim_spill_ms":     b.SpillSeconds * 1e3,
	}
}

// walkSpans visits every operator span under root with its kind, the
// wall time it spent outside its children, and the work charged there.
func walkSpans(root *opSpan, fn func(op string, self time.Duration, work counters)) {
	root.Walk(func(sp *opSpan, _ int) { fn(sp.Op, sp.SelfWall(), sp.SelfCounters()) })
}

// addWork accumulates b into a (max-style fields take the maximum).
func addWork(a *counters, b counters) { a.Add(b) }

const mb = 1 << 20

// workCounts names the exact work counts of a work profile.
func workCounts(c counters) map[string]float64 {
	return map[string]float64{
		"exec.tuples_scanned":        float64(c.TuplesScanned),
		"exec.seq_mb":                float64(c.SeqBytes) / mb,
		"exec.random_accesses":       float64(c.RandomAccesses),
		"exec.cache_random_accesses": float64(c.CacheRandomAccesses),
		"exec.hash_build_tuples":     float64(c.HashBuildTuples),
		"exec.hash_probe_tuples":     float64(c.HashProbeTuples),
		"exec.agg_updates":           float64(c.AggUpdates),
		"exec.materialized_mb":       float64(c.BytesMaterialized) / mb,
		"exec.partition_mb":          float64(c.PartitionBytes) / mb,
		"exec.merge_mb":              float64(c.MergeBytes) / mb,
		"exec.int_ops":               float64(c.IntOps),
		"exec.float_ops":             float64(c.FloatOps),
		"exec.max_hash_mb":           float64(c.MaxHashBytes) / mb,
		"exec.peak_live_mb":          float64(c.PeakLiveBytes) / mb,
		"spill.write_mb_per_pass":    float64(c.SpillWriteBytes) / mb,
		"spill.read_mb_per_pass":     float64(c.SpillReadBytes) / mb,
	}
}

// spilled reports whether a run wrote to the spill area.
func spilled(c counters) bool { return c.SpillWriteBytes > 0 }

// unitCosts pairs each per-unit cost metric with the operator row whose
// self-time it divides and the work count it divides by.
var unitCosts = []struct {
	metric, row string
	units       func(counters) int64
}{
	{"plan.scan_ns_per_tuple", "scan", func(c counters) int64 { return c.TuplesScanned }},
	{"plan.join_build_ns_per_tuple", "join_build", func(c counters) int64 { return c.HashBuildTuples }},
	{"plan.join_probe_ns_per_tuple", "join_probe", func(c counters) int64 { return c.HashProbeTuples }},
	{"plan.group_ns_per_update", "group", func(c counters) int64 { return c.AggUpdates }},
	{"plan.gather_ns_per_byte", "gather", func(c counters) int64 { return c.BytesMaterialized }},
}

// oracleRows answers query q with the naive row-at-a-time reference.
type oracle struct{ ref *tpch.Reference }

func newOracle(ds *dataset) oracle { return oracle{tpch.NewReference(ds)} }

func (o oracle) rows(q int) ([][]any, error) { return o.ref.Query(q) }

// tableRows converts a result table to the oracle's row shape.
func tableRows(t *table) ([][]any, error) {
	out := make([][]any, t.NumRows())
	for r := range out {
		out[r] = make([]any, t.NumCols())
	}
	for c := 0; c < t.NumCols(); c++ {
		switch col := t.Col(c).(type) {
		case *colstore.Float64s:
			for r := range out {
				out[r][c] = col.V[r]
			}
		case *colstore.Dates:
			for r := range out {
				out[r][c] = col.V[r]
			}
		case *colstore.Strings:
			for r := range out {
				out[r][c] = col.Value(r)
			}
		case *colstore.Bools:
			for r := range out {
				out[r][c] = col.V[r]
			}
		default:
			read, _, ok := colstore.Int64Reader(col)
			if !ok {
				return nil, fmt.Errorf("column %d: unsupported type %T", c, col)
			}
			for r := range out {
				out[r][c] = read(r)
			}
		}
	}
	return out, nil
}

// served is one serving tier over a shared pool.
type served struct {
	srv     *serve.Server
	pool    *exec.Pool
	db      *database
	handler http.Handler
}

// newServed starts a server the way cmd/wimpi-serve does: one pool of
// `workers`, one equal-weight unlimited tenant per client.
func newServed(ds *dataset, workers, cacheEntries int, reg *registry, tenants []string) *served {
	pool := exec.NewPool(workers)
	db := newDB(ds, dbConfig{workers: workers, pool: pool})
	srv := serve.New(serve.Config{DB: db, CacheEntries: cacheEntries, Registry: reg})
	for _, t := range tenants {
		srv.SetTenant(serve.TenantConfig{Name: t, Weight: 1})
	}
	return &served{srv: srv, pool: pool, db: db, handler: srv.Handler()}
}

func (s *served) close() { s.pool.Close() }

// servedResult is one RunPlan outcome.
type servedResult struct {
	table    *table
	hit      bool
	execTime time.Duration // engine time of a miss
}

func (s *served) runPlan(tenant string, n planNode) (servedResult, error) {
	res, err := s.srv.RunPlan(context.Background(), tenant, n)
	if err != nil {
		return servedResult{}, err
	}
	return servedResult{table: res.Table, hit: res.CacheHit, execTime: res.HostDuration}, nil
}

func newRegistry() *registry { return obs.NewRegistry() }

// Names of the serve tier's registry series the benchmark reads.
const (
	seriesAdmitted = "wimpi_serve_admitted_total"
	seriesRejected = "wimpi_serve_rejected_total"
	seriesQueries  = "wimpi_serve_queries_total"
	seriesErrors   = "wimpi_serve_errors_total"
)

func counterValue(reg *registry, name string) float64 { return float64(reg.Counter(name).Value()) }

func tenantCounterValue(reg *registry, name, tenant string) float64 {
	return counterValue(reg, obs.Labeled(name, "tenant", tenant))
}

// localCluster is an in-process WimPi cluster on loopback TCP.
type localCluster struct{ lc *cluster.LocalCluster }

// startCluster launches `nodes` single-worker nodes sharing ds, links
// throttled to the Pi's Ethernet, and ships the statements. It returns
// the load time the coordinator reports.
func startCluster(ds *dataset, nodes int, stmts map[int]string) (*localCluster, time.Duration, error) {
	lc, err := cluster.StartLocal(nodes, cluster.WorkerConfig{
		LinkBandwidthBps: cluster.PiLinkBandwidthBps,
		Source:           cluster.SharedSource(ds),
	}, 1)
	if err != nil {
		return nil, 0, err
	}
	stats, err := lc.Coordinator.LoadSQL(ds.Config.SF, ds.Config.Seed, stmts)
	if err != nil {
		lc.Close()
		return nil, 0, err
	}
	return &localCluster{lc}, stats.Duration, nil
}

func (c *localCluster) close() { c.lc.Close() }

// distRun is the coordinator's result of one distributed execution.
type distRun = cluster.DistResult

func (c *localCluster) runSQL(q int) (*distRun, error) { return c.lc.Coordinator.RunSQL(q) }

// clusterRun is a distRun taken apart: the merged answer, the exact wire
// volume, the coordinator's span tree flattened, and the run priced on Pi
// nodes and links (the paper's Table III number).
type clusterRun struct {
	table        *table
	wireBytes    int64
	redispatches int
	// exchange is the whole distributed run; slowestNode the longest
	// per-node round trip inside it; merge the coordinator's merge.
	exchange, slowestNode, merge time.Duration
	// Simulated seconds.
	simNode, simNetwork, simMerge, simTotal float64
}

func flatten(res *distRun) clusterRun {
	r := clusterRun{table: res.Table, wireBytes: res.BytesReceived, redispatches: res.Redispatches, exchange: res.Root.Wall}
	for _, sp := range res.Root.Children {
		switch {
		case sp.Op == "merge":
			r.merge = sp.Wall
		case sp.Op == "node" && sp.Wall > r.slowestNode:
			r.slowestNode = sp.Wall
		}
	}
	sim := cluster.Simulate(res, cluster.DefaultSimOptions())
	r.simNode, r.simNetwork, r.simMerge, r.simTotal = sim.NodeSeconds, sim.NetworkSeconds, sim.MergeSeconds, sim.Total
	return r
}
