package cluster

// Chaos suite: every distributed TPC-H query must survive injected
// faults — slow links, crashed connections, truncated frames, corrupted
// payloads — and produce results byte-identical to the fault-free run
// (after retry/re-dispatch), or degrade to a typed PartialClusterError.
// Never a hang: every run is guarded by context.WithTimeout.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wimpi/internal/cluster/faultconn"
	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/plan"
	sqlpkg "wimpi/internal/sql"
	"wimpi/internal/tpch"
)

const (
	chaosNodes = 3
	chaosSeed  = 42
	chaosWPN   = 2
)

// chaosCtx guards a test against hangs with a deadline, not a sleep.
func chaosCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// chaosConfig is the fast-failure coordinator config the chaos tests
// share: tight retries so failure paths resolve in milliseconds.
func chaosConfig() Config {
	return Config{
		WorkersPerNode: chaosWPN,
		RPCTimeout:     20 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Seed:           7,
	}
}

var (
	chaosOnce     sync.Once
	chaosErr      error
	chaosBaseline map[int]*colstore.Table
)

// baselineTables runs every distributed query on a fault-free cluster
// once per test binary; all chaos tests compare against it.
func baselineTables(t *testing.T) map[int]*colstore.Table {
	t.Helper()
	chaosOnce.Do(func() {
		lc, err := StartLocal(chaosNodes, WorkerConfig{}, chaosWPN)
		if err != nil {
			chaosErr = err
			return
		}
		defer lc.Close()
		stmts, err := tpch.Statements(tpch.RepresentativeQueries)
		if err != nil {
			chaosErr = err
			return
		}
		if _, err := lc.Coordinator.LoadSQL(testSF, chaosSeed, stmts); err != nil {
			chaosErr = err
			return
		}
		chaosBaseline = map[int]*colstore.Table{}
		for _, q := range tpch.RepresentativeQueries {
			res, err := lc.Coordinator.RunSQL(q)
			if err != nil {
				chaosErr = fmt.Errorf("baseline Q%d: %w", q, err)
				return
			}
			chaosBaseline[q] = res.Table
		}
	})
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosBaseline
}

// distributed is TPC-H query q split for the cluster.
func distributed(t *testing.T, q int) *sqlpkg.DistSQL {
	t.Helper()
	d, err := sqlpkg.Distribute(tpch.MustSQL(q))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func assertIdentical(t *testing.T, q int, got *colstore.Table, baseline map[int]*colstore.Table) {
	t.Helper()
	if ok, why := colstore.TablesIdentical(baseline[q], got); !ok {
		t.Fatalf("Q%d not byte-identical to fault-free run: %s", q, why)
	}
}

// TestChaosFaultClasses runs every distributed query under each fault
// class and requires byte-identical results after retry.
func TestChaosFaultClasses(t *testing.T) {
	baseline := baselineTables(t)
	cases := []struct {
		name string
		plan *faultconn.Plan
	}{
		{"delay-only", &faultconn.Plan{Seed: 1, Rules: []faultconn.Rule{
			{Node: 1, Op: faultconn.OpWrite, Phase: "query", Kind: faultconn.Delay, Delay: 80 * time.Millisecond, Times: 3},
			{Node: 2, Op: faultconn.OpRead, Phase: "query", Kind: faultconn.Delay, Delay: 40 * time.Millisecond, Times: 2},
		}}},
		{"single-node-crash", &faultconn.Plan{Seed: 2, Rules: []faultconn.Rule{
			// Kill node 1's connection mid-response on the first query,
			// and again deeper into the query phase (a mid-sequence query).
			{Node: 1, Op: faultconn.OpWrite, Phase: "query", After: 128, Kind: faultconn.Reset, Times: 1},
			{Node: 1, Op: faultconn.OpWrite, Phase: "query", After: 200_000, Kind: faultconn.Reset, Times: 1},
		}}},
		{"truncated-frame", &faultconn.Plan{Seed: 3, Rules: []faultconn.Rule{
			{Node: 2, Op: faultconn.OpWrite, Phase: "query", After: 300, Kind: faultconn.Truncate, Times: 1},
			{Node: 0, Op: faultconn.OpWrite, Phase: "query", After: 150_000, Kind: faultconn.Truncate, Times: 1},
		}}},
		{"corrupt-payload", &faultconn.Plan{Seed: 4, Rules: []faultconn.Rule{
			{Node: 0, Op: faultconn.OpWrite, Phase: "query", After: 90, Kind: faultconn.Corrupt, Times: 1},
			{Node: 2, Op: faultconn.OpWrite, Phase: "query", After: 120_000, Kind: faultconn.Corrupt, Times: 1},
		}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx := chaosCtx(t, 90*time.Second)
			lc, err := StartLocalFaulty(chaosNodes, WorkerConfig{}, chaosConfig(), tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(lc.Close)
			if _, err := lc.Coordinator.LoadSQLContext(ctx, testSF, chaosSeed, representativeSQL(t)); err != nil {
				t.Fatal(err)
			}
			for _, q := range tpch.RepresentativeQueries {
				res, err := lc.Coordinator.RunSQLContext(ctx, q)
				if err != nil {
					t.Fatalf("Q%d: %v", q, err)
				}
				assertIdentical(t, q, res.Table, baseline)
			}
		})
	}
}

// TestChaosRedispatchByteIdentical is the acceptance scenario: node 1's
// every query response dies, retries are exhausted, and re-dispatch to
// a healthy peer (which regenerates partition 1) must still produce
// merged tables byte-identical to the fault-free run for every query.
func TestChaosRedispatchByteIdentical(t *testing.T) {
	baseline := baselineTables(t)
	ctx := chaosCtx(t, 90*time.Second)
	plan := &faultconn.Plan{Seed: 5, Rules: []faultconn.Rule{
		{Node: 1, Op: faultconn.OpWrite, Phase: "query", Kind: faultconn.Reset, Times: -1},
	}}
	cfg := chaosConfig()
	cfg.Retry.MaxAttempts = 2
	cfg.Redispatch = true
	lc, err := StartLocalFaulty(chaosNodes, WorkerConfig{}, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if _, err := lc.Coordinator.LoadSQLContext(ctx, testSF, chaosSeed, representativeSQL(t)); err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.RepresentativeQueries {
		res, err := lc.Coordinator.RunSQLContext(ctx, q)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		assertIdentical(t, q, res.Table, baseline)
		if !distributed(t, q).SingleNode && res.Redispatches < 1 {
			t.Errorf("Q%d: expected at least one re-dispatch, got %d", q, res.Redispatches)
		}
		if res.Partial {
			t.Errorf("Q%d: re-dispatched run should not be partial", q)
		}
	}
}

// TestChaosRedispatchUnderMemBudget: the budgeted acceptance scenario.
// Every node runs under a per-query memory budget small enough to force
// join state through the spill scheduler, node 1's query responses die,
// and re-dispatch to a healthy peer — which regenerates partition 1 and
// spills it under the same shipped budget — must still merge to tables
// byte-identical to the fault-free, unbudgeted run.
func TestChaosRedispatchUnderMemBudget(t *testing.T) {
	baseline := baselineTables(t)
	ctx := chaosCtx(t, 90*time.Second)
	fplan := &faultconn.Plan{Seed: 11, Rules: []faultconn.Rule{
		{Node: 1, Op: faultconn.OpWrite, Phase: "query", Kind: faultconn.Reset, Times: -1},
	}}
	cfg := chaosConfig()
	cfg.Retry.MaxAttempts = 2
	cfg.Redispatch = true
	cfg.MemBudgetBytes = 64 << 10
	lc, err := StartLocalFaulty(chaosNodes, WorkerConfig{}, cfg, fplan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if _, err := lc.Coordinator.LoadSQLContext(ctx, testSF, chaosSeed, representativeSQL(t)); err != nil {
		t.Fatal(err)
	}
	catalog := engine.NewDB(engine.Config{})
	tpchMini(t).RegisterAll(catalog)
	spilled, ran := false, 0
	for _, q := range tpch.RepresentativeQueries {
		d := distributed(t, q)
		partial, err := sqlpkg.Plan(catalog, d.Partial, sqlpkg.Options{UniqueKeys: tpch.TableKeys()})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Spillable(partial.Node) {
			// A per-node partial with no join has nothing to spill: the
			// budget cancels it (the single-node MemLimitError semantics),
			// so it is out of scope for the spill acceptance run.
			continue
		}
		ran++
		res, err := lc.Coordinator.RunSQLContext(ctx, q)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		assertIdentical(t, q, res.Table, baseline)
		if !d.SingleNode && res.Redispatches < 1 {
			t.Errorf("Q%d: expected at least one re-dispatch, got %d", q, res.Redispatches)
		}
		for _, nc := range res.NodeCounters {
			if nc.SpillWriteBytes > 0 {
				spilled = true
			}
		}
	}
	if ran == 0 {
		t.Fatal("no representative query has a spillable partial plan")
	}
	if !spilled {
		t.Error("no query spilled: the budget did not exercise the spill path")
	}
}

// TestChaosPartialResult: with re-dispatch disabled and AllowPartial
// set, a permanently failing node yields a typed PartialClusterError
// carrying the merged result over the surviving partitions — within the
// configured deadlines, never a hang.
func TestChaosPartialResult(t *testing.T) {
	baselineTables(t) // ensure baseline works; partial results differ from it
	ctx := chaosCtx(t, 60*time.Second)
	plan := &faultconn.Plan{Seed: 6, Rules: []faultconn.Rule{
		{Node: 1, Op: faultconn.OpWrite, Phase: "query", Kind: faultconn.Reset, Times: -1},
	}}
	cfg := chaosConfig()
	cfg.Retry.MaxAttempts = 2
	cfg.AllowPartial = true
	lc, err := StartLocalFaulty(chaosNodes, WorkerConfig{}, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if _, err := lc.Coordinator.LoadSQLContext(ctx, testSF, chaosSeed, representativeSQL(t)); err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.RepresentativeQueries {
		start := time.Now()
		res, err := lc.Coordinator.RunSQLContext(ctx, q)
		elapsed := time.Since(start)
		if distributed(t, q).SingleNode {
			// Q13 runs on node 0 only; node 1's fault never fires.
			if err != nil {
				t.Fatalf("Q%d (single-node): %v", q, err)
			}
			continue
		}
		var perr *PartialClusterError
		if !errors.As(err, &perr) {
			t.Fatalf("Q%d: want PartialClusterError, got %v", q, err)
		}
		if len(perr.Failed) != 1 || perr.Failed[0].Node != 1 {
			t.Fatalf("Q%d: failed set %+v, want node 1", q, perr.Failed)
		}
		if res == nil || perr.Result != res {
			t.Fatalf("Q%d: AllowPartial should carry the partial result", q)
		}
		if !res.Partial || res.NodesUsed != chaosNodes-1 || len(res.FailedNodes) != 1 || res.FailedNodes[0] != 1 {
			t.Fatalf("Q%d: bad coverage metadata: %+v", q, res)
		}
		if res.Table == nil {
			t.Fatalf("Q%d: partial result has no table", q)
		}
		// Failure must resolve via bounded retries, far inside the
		// overall deadline.
		if elapsed > 20*time.Second {
			t.Fatalf("Q%d: partial failure took %v", q, elapsed)
		}
	}
}

// TestChaosPartialWithoutAllowPartial: same failure, AllowPartial off —
// a typed error with no result, still bounded.
func TestChaosPartialWithoutAllowPartial(t *testing.T) {
	ctx := chaosCtx(t, 60*time.Second)
	plan := &faultconn.Plan{Seed: 6, Rules: []faultconn.Rule{
		{Node: 0, Op: faultconn.OpWrite, Phase: "query", Kind: faultconn.Reset, Times: -1},
	}}
	cfg := chaosConfig()
	cfg.Retry.MaxAttempts = 2
	lc, err := StartLocalFaulty(2, WorkerConfig{}, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if _, err := lc.Coordinator.LoadSQLContext(ctx, 0.005, chaosSeed, tpchSQL(t, 6)); err != nil {
		t.Fatal(err)
	}
	res, err := lc.Coordinator.RunSQLContext(ctx, 6)
	var perr *PartialClusterError
	if !errors.As(err, &perr) {
		t.Fatalf("want PartialClusterError, got %v", err)
	}
	if res != nil || perr.Result != nil {
		t.Fatal("without AllowPartial there must be no result")
	}
	if perr.Op != "query" || perr.Query != 6 || perr.Total != 2 {
		t.Fatalf("bad error metadata: %+v", perr)
	}
}

// TestChaosStragglerRedispatch: a node that stalls for 8s is declared a
// straggler once healthy peers establish a median, its partition query
// is re-issued to a peer, and the merged result is byte-identical —
// long before the straggler would have answered.
func TestChaosStragglerRedispatch(t *testing.T) {
	baseline := baselineTables(t)
	ctx := chaosCtx(t, 60*time.Second)
	plan := &faultconn.Plan{Seed: 8, Rules: []faultconn.Rule{
		{Node: 2, Op: faultconn.OpWrite, Phase: "query", Kind: faultconn.Delay, Delay: 8 * time.Second, Times: 1},
	}}
	cfg := chaosConfig()
	cfg.Redispatch = true
	cfg.StragglerMultiple = 3
	cfg.StragglerMin = 100 * time.Millisecond
	cfg.Retry.MaxAttempts = 1
	lc, err := StartLocalFaulty(chaosNodes, WorkerConfig{}, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	if _, err := lc.Coordinator.LoadSQLContext(ctx, testSF, chaosSeed, representativeSQL(t)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := lc.Coordinator.RunSQLContext(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, 1, res.Table, baseline)
	if res.Redispatches < 1 {
		t.Errorf("expected a straggler re-dispatch, got %d", res.Redispatches)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("straggler handling took %v, want well under the 8s stall", elapsed)
	}
}

// TestChaosReproducible: the same seeded fault plan produces
// byte-identical results across independent cluster instances — the
// determinism regression for the retry and re-dispatch paths.
func TestChaosReproducible(t *testing.T) {
	ctx := chaosCtx(t, 90*time.Second)
	mkPlan := func() *faultconn.Plan {
		return &faultconn.Plan{Seed: 11, Rules: []faultconn.Rule{
			{Node: 1, Op: faultconn.OpWrite, Phase: "query", After: 64, Kind: faultconn.Corrupt, Times: 1},
			{Node: 2, Op: faultconn.OpWrite, Phase: "query", After: 512, Kind: faultconn.Reset, Times: 1},
		}}
	}
	run := func() map[int]*colstore.Table {
		cfg := chaosConfig()
		cfg.Redispatch = true
		lc, err := StartLocalFaulty(chaosNodes, WorkerConfig{}, cfg, mkPlan())
		if err != nil {
			t.Fatal(err)
		}
		defer lc.Close()
		if _, err := lc.Coordinator.LoadSQLContext(ctx, testSF, chaosSeed, representativeSQL(t)); err != nil {
			t.Fatal(err)
		}
		out := map[int]*colstore.Table{}
		for _, q := range tpch.RepresentativeQueries {
			res, err := lc.Coordinator.RunSQLContext(ctx, q)
			if err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
			out[q] = res.Table
		}
		return out
	}
	a, b := run(), run()
	baseline := baselineTables(t)
	for _, q := range tpch.RepresentativeQueries {
		if ok, why := colstore.TablesIdentical(a[q], b[q]); !ok {
			t.Errorf("Q%d: two runs under the same fault plan differ: %s", q, why)
		}
		assertIdentical(t, q, a[q], baseline)
	}
}

// TestCloseBoundedWithDeadWorker: a worker that never answers the
// shutdown call must not hang Close — the shutdown exchange carries
// Config.ShutdownTimeout.
func TestCloseBoundedWithDeadWorker(t *testing.T) {
	plan := &faultconn.Plan{Seed: 9, Rules: []faultconn.Rule{
		{Node: 0, Op: faultconn.OpWrite, Phase: "shutdown", Kind: faultconn.Stall},
	}}
	cfg := chaosConfig()
	cfg.ShutdownTimeout = 300 * time.Millisecond
	lc, err := StartLocalFaulty(2, WorkerConfig{}, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		lc.Close()
		close(done)
	}()
	select {
	case <-done:
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("Close took %v with a dead worker", elapsed)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Close hung on a never-responding worker")
	}
}

// TestChaosLoadFailureTyped: a node whose load responses always die
// surfaces as a typed PartialClusterError from LoadSQL, not a hang.
func TestChaosLoadFailureTyped(t *testing.T) {
	ctx := chaosCtx(t, 30*time.Second)
	plan := &faultconn.Plan{Seed: 10, Rules: []faultconn.Rule{
		{Node: 0, Op: faultconn.OpWrite, Phase: "load", Kind: faultconn.Reset, Times: -1},
	}}
	cfg := chaosConfig()
	cfg.Retry.MaxAttempts = 2
	lc, err := StartLocalFaulty(2, WorkerConfig{}, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	_, err = lc.Coordinator.LoadSQLContext(ctx, 0.002, 1, tpchSQL(t, 6))
	var perr *PartialClusterError
	if !errors.As(err, &perr) {
		t.Fatalf("want PartialClusterError from load, got %v", err)
	}
	if perr.Op != "load" || len(perr.Failed) != 1 || perr.Failed[0].Node != 0 {
		t.Fatalf("bad load error metadata: %+v", perr)
	}
}
