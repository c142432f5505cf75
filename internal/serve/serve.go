// Package serve is the multi-tenant serving runtime: an
// admission-controlled front door that interleaves many concurrent
// queries over one engine.DB and its shared morsel worker pool.
//
// The paper argues a wimpy cluster must degrade gracefully rather than
// collapse when oversubscribed (Section II-C); on the serving path that
// translates into explicit backpressure instead of unbounded goroutine
// fan-out. The server admits at most MaxConcurrent queries, queues at
// most MaxQueue more, and rejects the rest with a typed overload error
// the caller can turn into a retry-after. Per-tenant token buckets
// bound each tenant's query rate, per-tenant memory budgets cancel
// queries that outgrow their slice of DRAM, and a result cache keyed on
// plan fingerprints absorbs repeated dashboards-style workloads. A
// statement cache in front of it maps a repeated SQL text straight to
// its planned tree and fingerprint, so a result-cache hit costs two map
// lookups, not a plan. Both caches admit by frequency (TinyLFU): once
// full, a cache stores a new key only if it was asked for more often
// than the least-recent entry, so one-off queries do not flush the hot
// dashboards; /metrics counts each refusal.
//
// Results are bit-identical to serial execution: admission, pooling,
// and caching change when and where a morsel runs, never the morsel
// decomposition or merge order.
package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"wimpi/internal/engine"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
)

// Config shapes a Server.
type Config struct {
	// DB is the engine to serve. Register tables before serving begins;
	// the result and statement caches assume they are immutable
	// thereafter (the engine's normal lifecycle).
	DB *engine.DB
	// MaxConcurrent bounds admitted (executing) queries; < 1 selects the
	// database's worker count.
	MaxConcurrent int
	// MaxQueue bounds queries waiting for admission; beyond it callers
	// get an *OverloadError immediately. < 1 selects 4*MaxConcurrent.
	MaxQueue int
	// CacheEntries bounds the result cache and, separately, the
	// statement cache; 0 disables both.
	CacheEntries int
	// Registry receives serving metrics; nil selects obs.Default.
	Registry *obs.Registry
	// UniqueKeys declares the served tables' unique keys to the SQL
	// planner (sql.Options.UniqueKeys), e.g. tpch.TableKeys(). Statements
	// the planner can only lower with that knowledge — TPC-H Q13's
	// count-augmented outer join — are rejected without it. Nil declares
	// none.
	UniqueKeys map[string][]string
}

// OverloadError reports an admission rejection: the queue of waiting
// queries was already full. It is load shedding, not failure — the
// caller should back off and retry.
type OverloadError struct {
	// Queued is how many queries were already waiting.
	Queued int
	// Limit is the wait-queue bound that was hit.
	Limit int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded: %d queries queued (limit %d)", e.Queued, e.Limit)
}

// Server is the serving front door. All methods are safe for
// concurrent use.
type Server struct {
	db       *engine.DB
	keys     map[string][]string
	reg      *obs.Registry
	slots    chan struct{}
	maxQueue int
	queued   atomic.Int64
	cache    *cache[*engine.Result] // by plan fingerprint
	stmts    *cache[statement]      // by exact SQL text
	tenants  *tenantSet

	metricAdmitted  *obs.Counter
	metricRejected  *obs.Counter
	metricQueueLen  *obs.Gauge
	metricCacheHits *obs.Counter
	metricCacheRej  *obs.Counter
	metricCacheSize *obs.Gauge
	metricStmtHits  *obs.Counter
	metricStmtRej   *obs.Counter
}

// statement is one query ready to serve: its plan tree and, when the
// caches are on, the tree's fingerprint.
type statement struct {
	node plan.Node
	fp   string
}

// New builds a server over db.
func New(cfg Config) *Server {
	if cfg.DB == nil {
		panic("serve: Config.DB is required")
	}
	maxConc := cfg.MaxConcurrent
	if maxConc < 1 {
		maxConc = cfg.DB.Workers()
	}
	maxQueue := cfg.MaxQueue
	if maxQueue < 1 {
		maxQueue = 4 * maxConc
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	s := &Server{
		db:       cfg.DB,
		keys:     cfg.UniqueKeys,
		reg:      reg,
		slots:    make(chan struct{}, maxConc),
		maxQueue: maxQueue,

		metricAdmitted:  reg.Counter("wimpi_serve_admitted_total"),
		metricRejected:  reg.Counter("wimpi_serve_rejected_total"),
		metricQueueLen:  reg.Gauge("wimpi_serve_queue_depth"),
		metricCacheHits: reg.Counter("wimpi_serve_cache_hits_total"),
		metricCacheRej:  reg.Counter("wimpi_serve_cache_rejected_total"),
		metricCacheSize: reg.Gauge("wimpi_serve_cache_bytes"),
		metricStmtHits:  reg.Counter("wimpi_serve_statement_cache_hits_total"),
		metricStmtRej:   reg.Counter("wimpi_serve_statement_cache_rejected_total"),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newCache(cfg.CacheEntries, func(r *engine.Result) int64 { return r.Table.SizeBytes() })
		s.stmts = newCache[statement](cfg.CacheEntries, nil)
	}
	s.tenants = newTenantSet(reg)
	return s
}

// SetTenant registers (or replaces) a tenant's limits. Queries from
// unregistered tenants run with no rate limit, weight 1, and no memory
// budget.
func (s *Server) SetTenant(cfg TenantConfig) { s.tenants.set(cfg) }

// QueryResult is one served query's outcome.
type QueryResult struct {
	*engine.Result
	// CacheHit reports whether the result came from the fingerprint
	// cache. Cached tables are shared — treat them as immutable.
	CacheHit bool
	// Fingerprint is the plan's cache identity.
	Fingerprint string
}

// admit acquires an execution slot, waiting in a bounded queue. The
// returned release function must be called exactly once.
func (s *Server) admit(ctx context.Context) (func(), error) {
	release := func() {
		<-s.slots
		s.metricQueueLen.Set(s.queued.Load())
	}
	select {
	case s.slots <- struct{}{}:
		s.metricAdmitted.Inc()
		return release, nil
	default:
	}
	if n := s.queued.Add(1); n > int64(s.maxQueue) {
		s.queued.Add(-1)
		s.metricRejected.Inc()
		return nil, &OverloadError{Queued: int(n) - 1, Limit: s.maxQueue}
	}
	s.metricQueueLen.Set(s.queued.Load())
	defer func() {
		s.queued.Add(-1)
		s.metricQueueLen.Set(s.queued.Load())
	}()
	select {
	case s.slots <- struct{}{}:
		s.metricAdmitted.Inc()
		return release, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// RunPlan serves one query given as a plan tree (the entry point for
// the load generator and embedded callers). It applies, in order: the
// tenant's rate limit, the result cache, admission control, and
// execution under the tenant's pool weight and memory budget.
func (s *Server) RunPlan(ctx context.Context, tenant string, p plan.Node) (*QueryResult, error) {
	return s.serve(ctx, tenant, func() (statement, error) { return s.newStatement(p), nil })
}

// RunSQL serves one SQL statement as RunPlan does, planning it after the
// rate limit — or, for a text the statement cache holds, not at all.
func (s *Server) RunSQL(ctx context.Context, tenant, text string) (*QueryResult, error) {
	return s.serve(ctx, tenant, func() (statement, error) { return s.prepare(text) })
}

// serve is RunPlan's and RunSQL's one body: it throttles the tenant,
// resolves the statement, and runs it, observing every outcome on the
// tenant's metrics — a statement that fails to plan included.
func (s *Server) serve(ctx context.Context, tenant string, resolve func() (statement, error)) (*QueryResult, error) {
	tn := s.tenants.get(tenant)
	//lint:allow taintflow -- serving latency is measured and exported; results never depend on it
	start := time.Now()
	res, err := s.run(ctx, tn, resolve)
	tn.observe(time.Since(start), err)
	return res, err
}

func (s *Server) run(ctx context.Context, tn *tenant, resolve func() (statement, error)) (*QueryResult, error) {
	if err := tn.throttle(ctx); err != nil {
		return nil, err
	}
	st, err := resolve()
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		if res, ok := s.cache.get(st.fp); ok {
			s.metricCacheHits.Inc()
			tn.metricCacheHits.Inc()
			return &QueryResult{Result: res, CacheHit: true, Fingerprint: st.fp}, nil
		}
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := s.db.RunQuery(ctx, st.node, engine.QueryOpts{
		Workers:       tn.cfg.Workers,
		Weight:        tn.cfg.Weight,
		MemLimitBytes: tn.cfg.MemLimitBytes,
	})
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		bytes, stored := s.cache.put(st.fp, res)
		s.metricCacheSize.Set(bytes)
		if !stored {
			s.metricCacheRej.Inc()
		}
	}
	return &QueryResult{Result: res, Fingerprint: st.fp}, nil
}

// newStatement wraps a plan tree, fingerprinting it when the result
// cache needs the key.
func (s *Server) newStatement(p plan.Node) statement {
	st := statement{node: p}
	if s.cache != nil {
		st.fp = plan.Fingerprint(p)
	}
	return st
}

// prepare returns text's statement: from the statement cache when the
// same text was planned before, else planned and fingerprinted once and
// cached. A text that fails to plan is not cached, so it fails the same
// way on every request.
func (s *Server) prepare(text string) (statement, error) {
	if s.stmts != nil {
		if st, ok := s.stmts.get(text); ok {
			s.metricStmtHits.Inc()
			return st, nil
		}
	}
	planned, err := sql.Plan(s.db, text, sql.Options{UniqueKeys: s.keys})
	if err != nil {
		return statement{}, err
	}
	st := s.newStatement(planned.Node)
	if s.stmts != nil {
		if _, stored := s.stmts.put(text, st); !stored {
			s.metricStmtRej.Inc()
		}
	}
	return st, nil
}
