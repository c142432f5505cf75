package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

var (
	fixtureOnce sync.Once
	fixtureDS   *tpch.Dataset
)

// testDB builds a pool-backed engine over a small shared TPC-H
// dataset.
func testDB(t *testing.T, poolWorkers int) (*engine.DB, func()) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDS = tpch.Generate(tpch.Config{SF: 0.01, Seed: 7})
	})
	pool := exec.NewPool(poolWorkers)
	db := engine.NewDB(engine.Config{Workers: poolWorkers, Pool: pool})
	fixtureDS.RegisterAll(db)
	return db, pool.Close
}

// testMix plans TPC-H queries qs against db, one tree per query.
func testMix(t *testing.T, db *engine.DB, qs ...int) []MixEntry {
	t.Helper()
	var mix []MixEntry
	for _, n := range qs {
		q, err := tpch.Query(db, n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, MixEntry{Name: fmt.Sprintf("q%d", n), Plan: q})
	}
	return mix
}

// TestServeConcurrentClientsByteIdentical is the acceptance check: 64
// concurrent clients over one pooled engine, every result verified
// byte-identical to serial execution by RunLoad itself.
func TestServeConcurrentClientsByteIdentical(t *testing.T) {
	db, closePool := testDB(t, 4)
	defer closePool()
	s := New(Config{DB: db, MaxConcurrent: 8, MaxQueue: 64, CacheEntries: 16, Registry: obs.NewRegistry()})
	for i, name := range []string{"alpha", "beta", "gamma"} {
		s.SetTenant(TenantConfig{Name: name, Weight: 1 + i})
	}
	clients := 64
	if testing.Short() {
		clients = 16
	}
	rep, err := RunLoad(context.Background(), s, LoadConfig{
		Clients:          clients,
		QueriesPerClient: 4,
		Mix:              testMix(t, db, 1, 3, 6, 13),
		Tenants:          []string{"alpha", "beta", "gamma"},
		Seed:             11,
		Verify:           true,
	})
	if err != nil {
		t.Fatalf("load run: %v (report %+v)", err, rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors", rep.Errors)
	}
	if rep.Queries != clients*4 {
		t.Fatalf("ran %d queries, want %d", rep.Queries, clients*4)
	}
	if rep.QPS <= 0 || rep.P99MS < rep.P50MS {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestServeReusesSQLPlanTrees: RunLoad hands every client the same
// planned tree per query, and with the result cache off every request
// executes it, so the plans that hold CTEs and scalar subqueries run
// concurrently many times over — each still byte-identical to its serial
// run.
func TestServeReusesSQLPlanTrees(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	s := New(Config{DB: db, MaxConcurrent: 4, MaxQueue: 16, Registry: obs.NewRegistry()})
	rep, err := RunLoad(context.Background(), s, LoadConfig{
		Clients:          8,
		QueriesPerClient: 4,
		Mix:              testMix(t, db, 2, 11, 15, 17, 20, 21, 22),
		Seed:             5,
		Verify:           true,
	})
	if err != nil {
		t.Fatalf("load run: %v (report %+v)", err, rep)
	}
	if rep.Errors != 0 || rep.CacheHits != 0 {
		t.Fatalf("load run: %d errors, %d cache hits, want none", rep.Errors, rep.CacheHits)
	}
}

// TestServeOverload: with one execution slot and a one-deep queue, the
// first extra query waits and the second is shed with *OverloadError —
// not queued unboundedly, not failed some other way. The slot is pinned
// directly so the pressure is deterministic regardless of how the
// scheduler interleaves client goroutines.
func TestServeOverload(t *testing.T) {
	db, closePool := testDB(t, 1)
	defer closePool()
	s := New(Config{DB: db, MaxConcurrent: 1, MaxQueue: 1, Registry: obs.NewRegistry()})
	q := tpch.MustQuery(db, 1)

	release, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One query fits in the wait queue.
	queuedDone := make(chan error, 1)
	go func() {
		_, err := s.RunPlan(context.Background(), "burst", q)
		queuedDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the wait queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The next is shed immediately.
	_, err = s.RunPlan(context.Background(), "burst", q)
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if over.Limit != 1 || over.Queued < 1 {
		t.Fatalf("overload detail = %+v", over)
	}

	// Freeing the slot lets the queued query run to completion.
	release()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued query: %v", err)
	}
}

// TestServeResultCache: a repeated plan hits the cache and shares the
// result table; a semantically different plan does not.
func TestServeResultCache(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	s := New(Config{DB: db, CacheEntries: 8, Registry: obs.NewRegistry()})
	q6 := tpch.MustQuery(db, 6)
	first, err := s.RunPlan(context.Background(), "t", q6)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	second, err := s.RunPlan(context.Background(), "t", q6)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if second.Table != first.Table {
		t.Fatal("cache hit returned a different table")
	}
	if ok, why := colstore.TablesIdentical(first.Table, second.Table); !ok {
		t.Fatalf("cached result differs: %s", why)
	}
	q1, err := s.RunPlan(context.Background(), "t", tpch.MustQuery(db, 1))
	if err != nil {
		t.Fatal(err)
	}
	if q1.CacheHit {
		t.Fatal("different plan hit the q6 cache entry")
	}
	if q1.Fingerprint == first.Fingerprint {
		t.Fatal("different plans share a fingerprint")
	}
}

// fetch looks key up the way the server does — get, and put on a miss —
// and reports whether it hit.
func fetch[V any](c *cache[V], key string, val V) bool {
	if _, ok := c.get(key); ok {
		return true
	}
	c.put(key, val)
	return false
}

// TestServeCacheEviction: the entry bound holds for both instantiations
// — results, whose byte total follows evictions, and statements — and a
// full cache refuses a key asked for no more often than its least-recent
// entry, and evicts that entry for one asked for more often.
func TestServeCacheEviction(t *testing.T) {
	mk := func() *engine.Result {
		b := colstore.NewTableBuilder("t", colstore.Schema{{Name: "v", Type: colstore.Int64}})
		b.Int(0, 1)
		b.EndRow()
		return &engine.Result{Table: b.Build()}
	}
	results := newCache(2, func(r *engine.Result) int64 { return r.Table.SizeBytes() })
	one := mk().Table.SizeBytes()
	fetch(results, "a", mk())
	fetch(results, "b", mk())
	results.get("c")
	results.get("c")
	if got, stored := results.put("c", mk()); !stored || got != 2*one { // evicts a
		t.Fatalf("cache bytes = %d (stored %v), want %d", got, stored, 2*one)
	}
	stmts := newCache[statement](2, nil)
	fetch(stmts, "a", statement{fp: "a"})
	fetch(stmts, "b", statement{fp: "b"})
	stmts.get("a") // b is now the least recent
	stmts.get("c")
	if _, stored := stmts.put("c", statement{fp: "c"}); stored {
		t.Fatal("statements: a first-time key displaced an entry asked for as often")
	}
	stmts.get("c") // c's second ask outnumbers b's one
	if got, stored := stmts.put("c", statement{fp: "c"}); !stored || got != 0 {
		t.Fatalf("statement cache bytes = %d (stored %v), want 0", got, stored)
	}
	for _, c := range []struct {
		name       string
		get        func(string) bool
		len        int
		gone, kept string
	}{
		{"results", func(k string) bool { _, ok := results.get(k); return ok }, results.len(), "a", "b"},
		{"statements", func(k string) bool { _, ok := stmts.get(k); return ok }, stmts.len(), "b", "a"},
	} {
		if c.get(c.gone) {
			t.Errorf("%s: did not evict the least recent entry %q", c.name, c.gone)
		}
		if !c.get(c.kept) || !c.get("c") {
			t.Errorf("%s: evicted a live entry", c.name)
		}
		if c.len != 2 {
			t.Errorf("%s: len = %d, want 2", c.name, c.len)
		}
	}
}

// TestServeCacheKeepsHotSetThroughOneOffs: 3 × capacity one-off keys,
// interleaved with a hot set bigger than LRU could keep under them,
// leave every hot key cached.
func TestServeCacheKeepsHotSetThroughOneOffs(t *testing.T) {
	const capacity = 8
	c := newCache[int](capacity, nil)
	hot := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	for round := 0; round < 2; round++ {
		for _, k := range hot {
			fetch(c, k, 0)
		}
	}
	for i := 0; i < 3*capacity; i++ {
		fetch(c, fmt.Sprint("once", i), i)
		if k := hot[i%len(hot)]; !fetch(c, k, 0) {
			t.Fatalf("hot key %s missed after %d one-off keys", k, i+1)
		}
	}
}

// TestServeCacheFollowsNewHotSet: after the hot set changes, aging lets
// the new hot keys in within 20 × capacity lookups.
func TestServeCacheFollowsNewHotSet(t *testing.T) {
	const capacity = 8
	c := newCache[int](capacity, nil)
	keys := func(prefix string) (ks []string) {
		for i := 0; i < capacity; i++ {
			ks = append(ks, fmt.Sprint(prefix, i))
		}
		return ks
	}
	for round := 0; round < 30; round++ { // saturates every old count
		for _, k := range keys("old") {
			fetch(c, k, 0)
		}
	}
	lookups := 0
	for allHit := false; !allHit; {
		allHit = true
		for _, k := range keys("new") {
			allHit = fetch(c, k, 0) && allHit
			lookups++
		}
		if lookups > 20*capacity {
			t.Fatalf("new hot set not cached after %d lookups", lookups)
		}
	}
	t.Logf("new hot set cached after %d lookups", lookups)
}

// TestServeCacheZipfHitRatio replays the serve benchmark's request mix
// — 7 queries × 16 parameter variants, variants drawn Zipf(1.1), 32
// entries — through get-then-put. Plain LRU reads 0.534, 0.550 and 0.543
// on seeds 1–3; frequency admission must reach 0.62.
func TestServeCacheZipfHitRatio(t *testing.T) {
	const lookups = 20000
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.1, 1, 15)
		c := newCache[int](32, nil)
		hits := 0
		for i := 0; i < lookups; i++ {
			if fetch(c, fmt.Sprintf("q%d/v%d", rng.Intn(7), zipf.Uint64()), i) {
				hits++
			}
		}
		ratio := float64(hits) / lookups
		t.Logf("seed %d: hit ratio %.3f", seed, ratio)
		if ratio < 0.62 {
			t.Errorf("seed %d: hit ratio %.3f, want >= 0.62", seed, ratio)
		}
	}
}

// TestServeStatementCache: a repeated SQL text is served from the
// cached tree and fingerprint, with the result a cache-less server
// computes; with CacheEntries 0 every request plans afresh and no
// statement hit is counted.
func TestServeStatementCache(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	text, err := tpch.SQL(6)
	if err != nil {
		t.Fatal(err)
	}
	serveTwice := func(entries int) (*Server, *obs.Registry, [2]statement, *QueryResult) {
		t.Helper()
		reg := obs.NewRegistry()
		s := New(Config{DB: db, CacheEntries: entries, Registry: reg})
		var sts [2]statement
		var res *QueryResult
		for i := range sts {
			if sts[i], err = s.prepare(text); err != nil {
				t.Fatal(err)
			}
			if res, err = s.RunSQL(context.Background(), "t", text); err != nil {
				t.Fatal(err)
			}
		}
		return s, reg, sts, res
	}

	cached, reg, sts, got := serveTwice(4)
	if sts[0].node != sts[1].node {
		t.Fatal("repeated text was planned again")
	}
	planned, err := sql.Plan(db, text, sql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Fingerprint(planned.Node); sts[1].fp != want || got.Fingerprint != want {
		t.Fatalf("cached fingerprint %q, served %q, want %q", sts[1].fp, got.Fingerprint, want)
	}
	if n := reg.Counter("wimpi_serve_statement_cache_hits_total").Value(); n != 3 {
		t.Fatalf("statement hits = %d, want 3 (of 4 lookups)", n)
	}
	if cached.stmts.len() != 1 {
		t.Fatalf("statement cache holds %d entries, want 1", cached.stmts.len())
	}

	_, reg, sts, want := serveTwice(0)
	if sts[0].node == sts[1].node {
		t.Fatal("CacheEntries 0 reused a planned tree")
	}
	if n := reg.Counter("wimpi_serve_statement_cache_hits_total").Value(); n != 0 {
		t.Fatalf("CacheEntries 0 counted %d statement hits", n)
	}
	if ok, why := colstore.TablesIdentical(want.Table, got.Table); !ok {
		t.Fatalf("statement-cached result differs from the cache-less one: %s", why)
	}
}

// TestServeReusesStatementsConcurrently: eight clients send all 22 TPC-H
// texts through RunSQL in their own orders with four cache entries, so
// statements and results churn and cached trees — the CTE and
// scalar-subquery ones too — run from several goroutines at once. Every
// result equals the serial run of a freshly planned tree.
func TestServeReusesStatementsConcurrently(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	keys := tpch.TableKeys()
	texts := make([]string, 22)
	want := make([]*colstore.Table, len(texts))
	for i := range texts {
		var err error
		if texts[i], err = tpch.SQL(i + 1); err != nil {
			t.Fatal(err)
		}
		planned, err := sql.Plan(db, texts[i], sql.Options{UniqueKeys: keys})
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.RunQuery(context.Background(), planned.Node, engine.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Table
	}

	reg := obs.NewRegistry()
	s := New(Config{DB: db, MaxConcurrent: 4, MaxQueue: 16, CacheEntries: 4, Registry: reg, UniqueKeys: keys})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(c))).Perm(len(texts)) {
				res, err := s.RunSQL(context.Background(), fmt.Sprintf("c%d", c), texts[i])
				if err != nil {
					t.Errorf("client %d Q%d: %v", c, i+1, err)
					continue
				}
				if ok, why := colstore.TablesIdentical(want[i], res.Table); !ok {
					t.Errorf("client %d Q%d differs from the serial run: %s", c, i+1, why)
				}
			}
		}(c)
	}
	wg.Wait()
	if s.stmts.len() > 4 || s.cache.len() > 4 {
		t.Fatalf("caches hold %d statements, %d results; bound is 4", s.stmts.len(), s.cache.len())
	}
}

// TestServeTenantMemBudget: a tenant with a tiny memory budget spills
// its join-bearing query through the budget-bounded scheduler — same
// answer as an unbudgeted tenant, with spill I/O recorded — while a
// plan with no spillable operator is still cancelled with
// *plan.MemLimitError.
func TestServeTenantMemBudget(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	s := New(Config{DB: db, Registry: obs.NewRegistry()})
	s.SetTenant(TenantConfig{Name: "cramped", MemLimitBytes: 64 << 10})
	q := tpch.MustQuery(db, 3) // joins: spillable under a budget

	roomy, err := s.RunPlan(context.Background(), "roomy", q)
	if err != nil {
		t.Fatalf("roomy tenant: %v", err)
	}
	cramped, err := s.RunPlan(context.Background(), "cramped", q)
	if err != nil {
		t.Fatalf("cramped tenant: %v", err)
	}
	if ok, why := colstore.TablesIdentical(roomy.Table, cramped.Table); !ok {
		t.Fatalf("budgeted result differs from unbudgeted: %s", why)
	}
	if cramped.Counters.SpillWriteBytes == 0 || cramped.Counters.SpillReadBytes == 0 {
		t.Fatalf("cramped tenant did not spill: %+v", cramped.Counters)
	}
	if roomy.Counters.SpillWriteBytes != 0 {
		t.Fatalf("unbudgeted tenant spilled: %+v", roomy.Counters)
	}

	// Q1 has no join: nothing to spill, so the budget still cancels.
	_, err = s.RunPlan(context.Background(), "cramped", tpch.MustQuery(db, 1))
	var mem *plan.MemLimitError
	if !errors.As(err, &mem) {
		t.Fatalf("non-spillable plan err = %v, want *plan.MemLimitError", err)
	}
}

// TestServeTenantRateLimitCancel: a context cancelled while waiting on
// the tenant's rate limiter returns promptly with the context error.
func TestServeTenantRateLimitCancel(t *testing.T) {
	db, closePool := testDB(t, 1)
	defer closePool()
	s := New(Config{DB: db, Registry: obs.NewRegistry()})
	// 1 query per hour, burst 1: the first query drains the bucket.
	s.SetTenant(TenantConfig{Name: "slow", QueriesPerSec: 1.0 / 3600, Burst: 1})
	q := tpch.MustQuery(db, 6)
	if _, err := s.RunPlan(context.Background(), "slow", q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.RunPlan(ctx, "slow", q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("throttled err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("throttled query did not return promptly on cancel")
	}
}

// TestServeTenantMetricsLabeled: serving emits per-tenant labeled
// series with one TYPE line per metric base name.
func TestServeTenantMetricsLabeled(t *testing.T) {
	db, closePool := testDB(t, 1)
	defer closePool()
	reg := obs.NewRegistry()
	s := New(Config{DB: db, Registry: reg})
	q := tpch.MustQuery(db, 6)
	for _, tenant := range []string{"red", "blue"} {
		if _, err := s.RunPlan(context.Background(), tenant, q); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`wimpi_serve_queries_total{tenant="red"} 1`,
		`wimpi_serve_queries_total{tenant="blue"} 1`,
		`wimpi_serve_latency_seconds_count{tenant="red"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE wimpi_serve_queries_total counter"); got != 1 {
		t.Errorf("TYPE line for queries_total appears %d times, want 1", got)
	}
}
