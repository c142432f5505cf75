package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/obs"
	sqlpkg "wimpi/internal/sql"
)

// Coordinator-side metrics on the shared default registry.
var (
	metricRPCLatency   = obs.Default.Histogram("wimpi_cluster_rpc_latency_seconds", obs.DefaultLatencyBuckets)
	metricRPCRetries   = obs.Default.Counter("wimpi_cluster_rpc_retries_total")
	metricRedispatches = obs.Default.Counter("wimpi_cluster_redispatches_total")
)

// Config parameterizes a coordinator.
type Config struct {
	// Addrs lists worker addresses; len(Addrs) is the cluster size.
	Addrs []string
	// WorkersPerNode is each node's intra-query parallelism (a Pi 3B+
	// has four cores).
	WorkersPerNode int
	// Exec is each node's execution mode ("vector" or "fused"; empty
	// selects vector). It is shipped with every load so re-dispatched
	// partitions plan — and answer — identically on whichever node ends
	// up running them.
	Exec string
	// MemBudgetBytes is each node's per-query memory budget (see
	// engine.Config.MemBudgetBytes); zero means unbounded. Shipped with
	// every load so a re-dispatched partition spills — and answers —
	// identically on whichever node runs it. Each worker spills to its
	// own local temp directory; no spill state crosses the wire.
	MemBudgetBytes int64

	// DialTimeout bounds each TCP connect (default 10s).
	DialTimeout time.Duration
	// RPCTimeout bounds each individual RPC attempt — connection reads
	// and writes carry this deadline (default 60s).
	RPCTimeout time.Duration
	// ShutdownTimeout bounds the per-node shutdown exchange in Close,
	// so a dead worker cannot hang teardown (default 2s).
	ShutdownTimeout time.Duration
	// Retry shapes the backoff for idempotent RPCs (ping, load, query,
	// iperf). Zero values take defaults; MaxAttempts 1 disables retry.
	Retry RetryPolicy
	// Seed drives the retry-jitter RNG, keeping chaos runs
	// reproducible (default 1).
	Seed int64

	// AllowPartial makes RunSQL return a merged result over the surviving
	// partitions (flagged via DistResult.Partial plus a
	// *PartialClusterError) instead of failing outright when nodes die.
	AllowPartial bool
	// Redispatch re-issues a failed or straggling node's partition
	// query to a healthy peer, which regenerates that partition and
	// produces a byte-identical partial.
	Redispatch bool
	// StragglerMultiple: a node is a straggler once its in-flight query
	// exceeds this multiple of the median completed-node response time
	// (default 4; only meaningful with Redispatch).
	StragglerMultiple float64
	// StragglerMin is the floor under the straggler threshold, so tiny
	// medians don't trigger spurious re-dispatch (default 250ms).
	StragglerMin time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.WorkersPerNode < 1 {
		cfg.WorkersPerNode = 4
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 60 * time.Second
	}
	if cfg.ShutdownTimeout <= 0 {
		cfg.ShutdownTimeout = 2 * time.Second
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.StragglerMultiple <= 1 {
		cfg.StragglerMultiple = 4
	}
	if cfg.StragglerMin <= 0 {
		cfg.StragglerMin = 250 * time.Millisecond
	}
	return cfg
}

// Coordinator drives a WimPi cluster: it loads partitions, fans out
// partial plans, and merges partial results (the role of the paper's
// Python driver program, Section III-C.3), tolerating slow links, hung
// boards, and partial failures via per-RPC deadlines, retry with capped
// backoff, reconnect, and straggler re-dispatch.
type Coordinator struct {
	cfg   Config
	conns []*rpcConn
	rng   *lockedRand

	// sqlMu guards sqlDist, the merge half of each statement shipped by
	// the last LoadSQL (the partial half lives on the workers).
	sqlMu   sync.Mutex
	sqlDist map[int]*sqlpkg.DistSQL
}

// Dial connects to every worker.
func Dial(cfg Config) (*Coordinator, error) {
	return DialContext(context.Background(), cfg)
}

// DialContext connects to every worker and pings it, honoring ctx and
// the config's dial/RPC deadlines.
func DialContext(ctx context.Context, cfg Config) (*Coordinator, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: no worker addresses")
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, rng: newLockedRand(cfg.Seed)}
	for _, addr := range cfg.Addrs {
		c.conns = append(c.conns, newRPCConn(addr, cfg.DialTimeout))
	}
	for i := range c.conns {
		if _, _, err := c.conns[i].ensure(ctx); err != nil {
			c.Close()
			return nil, err
		}
	}
	for i := range c.conns {
		if _, _, err := c.callRetry(ctx, i, &Request{Type: "ping", ForNode: -1}); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// callRetry performs one idempotent RPC with per-attempt deadlines and
// capped exponential backoff + seeded jitter. Worker-reported
// application errors are deterministic and never retried; transport
// errors (timeouts, resets, corrupt frames) reconnect and retry.
func (c *Coordinator) callRetry(ctx context.Context, node int, req *Request) (*Response, int64, error) {
	policy := c.cfg.Retry
	var lastErr error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := policy.backoff(attempt-1, c.rng)
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, 0, fmt.Errorf("cluster: %s to node %d: %w (last: %v)", req.Type, node, ctx.Err(), lastErr)
			}
		}
		if attempt > 0 {
			metricRPCRetries.Inc()
		}
		attemptCtx := ctx
		var cancel context.CancelFunc = func() {}
		if c.cfg.RPCTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, c.cfg.RPCTimeout)
		}
		attemptStart := time.Now()
		resp, n, err := c.conns[node].call(attemptCtx, req)
		metricRPCLatency.Observe(time.Since(attemptStart).Seconds())
		cancel()
		if err == nil {
			return resp, n, nil
		}
		lastErr = err
		var we *WorkerError
		if errors.As(err, &we) {
			return nil, 0, err // deterministic application failure
		}
		if ctx.Err() != nil {
			return nil, 0, lastErr
		}
	}
	return nil, 0, fmt.Errorf("cluster: %s to node %d failed after %d attempts: %w",
		req.Type, node, policy.MaxAttempts, lastErr)
}

// NumNodes reports the cluster size.
func (c *Coordinator) NumNodes() int { return len(c.conns) }

// Close tells workers to shut down their session and closes
// connections. Each shutdown exchange is bounded by
// Config.ShutdownTimeout, so a dead or stalled worker cannot hang
// teardown; broken connections are closed without the courtesy call.
func (c *Coordinator) Close() {
	for _, conn := range c.conns {
		if conn == nil {
			continue
		}
		if conn.connected() {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShutdownTimeout)
			conn.call(ctx, &Request{Type: "shutdown", ForNode: -1})
			cancel()
		}
		conn.close()
	}
}

// LoadStats summarizes a cluster load.
type LoadStats struct {
	// NodeBytes is each node's resident dataset size.
	NodeBytes []int64
	// Duration is the wall-clock load time.
	Duration time.Duration
}

// LoadSQL makes every worker generate and register its partition and
// ships the statements it will run: each statement in stmts is split
// with sqlpkg.Distribute, the per-node partial halves ride along in
// every LoadRequest, and the merge halves stay here for RunSQL. Every
// node receives the same texts, so a re-dispatched partition plans
// identically wherever it lands.
func (c *Coordinator) LoadSQL(sf float64, seed uint64, stmts map[int]string) (*LoadStats, error) {
	return c.LoadSQLContext(context.Background(), sf, seed, stmts)
}

// LoadSQLContext is LoadSQL with cancellation and deadlines. Per-node
// loads are retried on transport failure; a terminally failed node
// yields a *PartialClusterError (a load cannot be partial — every
// partition is needed).
func (c *Coordinator) LoadSQLContext(ctx context.Context, sf float64, seed uint64, stmts map[int]string) (*LoadStats, error) {
	ids := make([]int, 0, len(stmts))
	for id := range stmts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	dist := make(map[int]*sqlpkg.DistSQL, len(stmts))
	partials := make(map[int]string, len(stmts))
	for _, id := range ids {
		d, err := sqlpkg.Distribute(stmts[id])
		if err != nil {
			return nil, fmt.Errorf("cluster: distribute statement %d: %w", id, err)
		}
		dist[id] = d
		partials[id] = d.Partial
	}
	//lint:allow taintflow -- measured wall clock for LoadStats reporting; results never depend on it
	start := time.Now()
	stats := &LoadStats{NodeBytes: make([]int64, len(c.conns))}
	errs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for i := range c.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _, err := c.callRetry(ctx, i, &Request{Type: "load", ForNode: -1, Load: &LoadRequest{
				SF: sf, Seed: seed, Node: i, NumNodes: len(c.conns),
				Workers: c.cfg.WorkersPerNode, Exec: c.cfg.Exec,
				MemBudgetBytes: c.cfg.MemBudgetBytes, SQL: partials,
			}})
			if err != nil {
				errs[i] = err
				return
			}
			stats.NodeBytes[i] = resp.DBBytes
		}(i)
	}
	wg.Wait()
	var failed []NodeError
	for i, err := range errs {
		if err != nil {
			failed = append(failed, NodeError{Node: i, Addr: c.cfg.Addrs[i], Err: err})
		}
	}
	if len(failed) > 0 {
		return nil, &PartialClusterError{Op: "load", Failed: failed, Total: len(c.conns)}
	}
	stats.Duration = time.Since(start)
	c.sqlMu.Lock()
	c.sqlDist = dist
	c.sqlMu.Unlock()
	return stats, nil
}

// DistResult is the outcome of one distributed query.
type DistResult struct {
	// Query is the statement id LoadSQL shipped (the TPC-H query number
	// for TPC-H texts).
	Query int
	// Table is the merged final result.
	Table *colstore.Table
	// NodeCounters holds each participating node's work profile.
	NodeCounters []exec.Counters
	// NodePlans holds each participating node's rendered optimizer report
	// for the partial statement. Planning is worker-independent, so these
	// are identical across nodes — including a node that ran a
	// re-dispatched foreign partition.
	NodePlans []string
	// NodeDBBytes holds each participating node's resident data size.
	NodeDBBytes []int64
	// MergeCounters is the coordinator's merge work.
	MergeCounters exec.Counters
	// BytesReceived is the wire volume of partial results.
	BytesReceived int64
	// NodesUsed is how many nodes executed the query (1 for Q13).
	NodesUsed int
	// HostDuration is the real wall-clock time of the distributed run.
	HostDuration time.Duration
	// Partial is set when the result covers only surviving partitions
	// (Config.AllowPartial after node failures).
	Partial bool
	// FailedNodes lists partitions missing from a partial result.
	FailedNodes []int
	// Redispatches counts partition queries re-issued to healthy peers
	// (straggler handling or failure re-dispatch).
	Redispatches int
	// Root is the distributed run's span tree: an exchange span over the
	// per-node partial executions plus the coordinator-side merge. Node
	// counters are the workers' deterministic work profiles; wall times
	// are measured round-trips.
	Root *obs.Span
}

// buildSpans assembles the exchange span tree from the surviving
// partitions' partials and the merge work.
func (res *DistResult) buildSpans(parts []part, failedAt []error, mergeCtr exec.Counters, mergeDur time.Duration) {
	root := &obs.Span{
		Op:    "exchange",
		Label: fmt.Sprintf("exchange Q%d over %d nodes", res.Query, res.NodesUsed),
		Bytes: res.BytesReceived,
		Wall:  res.HostDuration,
		Err:   res.Partial,
	}
	for i := range parts {
		if failedAt[i] != nil {
			root.Children = append(root.Children, &obs.Span{
				Op: "node", Label: fmt.Sprintf("node %d partial", i), Err: true,
			})
			continue
		}
		sp := &obs.Span{
			Op:       "node",
			Label:    fmt.Sprintf("node %d partial", i),
			Rows:     int64(parts[i].table.NumRows()),
			Bytes:    parts[i].bytes,
			Wall:     parts[i].dur,
			Counters: parts[i].ctr,
		}
		root.Counters.Add(sp.Counters)
		root.Children = append(root.Children, sp)
	}
	if res.Table != nil {
		merge := &obs.Span{
			Op:       "merge",
			Label:    "merge partials",
			Rows:     int64(res.Table.NumRows()),
			Bytes:    res.Table.SizeBytes(),
			Wall:     mergeDur,
			Counters: mergeCtr,
		}
		root.Counters.Add(merge.Counters)
		root.Children = append(root.Children, merge)
		root.Rows = merge.Rows
	}
	res.Root = root
}

// part is one partition's successful partial result.
type part struct {
	table *colstore.Table
	ctr   exec.Counters
	bytes int64
	db    int64
	plan  string        // rendered optimizer report of the partial
	dur   time.Duration // round-trip wall time of the winning attempt
}

// outcome is one completed (or failed) partition query attempt.
type outcome struct {
	node   int // partition index
	conn   int // conn the attempt ran on
	part   part
	err    error
	backup bool
}

// RunSQL executes a statement shipped by the last LoadSQL: per-node
// partials planned from the shipped text, merged by planning and
// running the statement's merge half here.
func (c *Coordinator) RunSQL(id int) (*DistResult, error) {
	return c.RunSQLContext(context.Background(), id)
}

// RunSQLContext is RunSQL with cancellation, per-RPC deadlines, retry,
// and — when enabled — straggler/failure re-dispatch and graceful
// degradation. On node failure it returns a *PartialClusterError; with
// Config.AllowPartial the error additionally carries the merged result
// over surviving partitions.
func (c *Coordinator) RunSQLContext(ctx context.Context, id int) (*DistResult, error) {
	d, err := c.statement(id)
	if err != nil {
		return nil, err
	}
	return c.runDist(ctx, id, d)
}

// statement returns the distributed form of statement id shipped by the
// last LoadSQL.
func (c *Coordinator) statement(id int) (*sqlpkg.DistSQL, error) {
	c.sqlMu.Lock()
	d := c.sqlDist[id]
	c.sqlMu.Unlock()
	if d == nil {
		return nil, fmt.Errorf("cluster: no SQL loaded for statement %d (use LoadSQL)", id)
	}
	return d, nil
}

// merge combines the per-node partials of statement id: a single-node
// statement's one partial is its answer; otherwise the partials are
// concatenated, exposed as the table "partials", and the merge statement
// is planned and run over them here.
func (c *Coordinator) merge(id int, d *sqlpkg.DistSQL, parts []*colstore.Table) (*colstore.Table, exec.Counters, error) {
	if d.SingleNode {
		if len(parts) != 1 {
			return nil, exec.Counters{}, fmt.Errorf("cluster: statement %d is single-node but got %d partials", id, len(parts))
		}
		return parts[0], exec.Counters{}, nil
	}
	all, err := colstore.Concat(parts...)
	if err != nil {
		return nil, exec.Counters{}, fmt.Errorf("cluster: sql merge: %w", err)
	}
	all.Name = "partials"
	db := engine.NewDB(engine.Config{Workers: c.cfg.WorkersPerNode})
	db.Register(all)
	pl, err := sqlpkg.Plan(db, d.Merge, sqlpkg.Options{})
	if err != nil {
		return nil, exec.Counters{}, fmt.Errorf("cluster: sql merge plan: %w", err)
	}
	res, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
	if err != nil {
		return nil, exec.Counters{}, fmt.Errorf("cluster: sql merge: %w", err)
	}
	return res.Table, res.Counters, nil
}

func (c *Coordinator) runDist(ctx context.Context, q int, d *sqlpkg.DistSQL) (*DistResult, error) {
	// Cancel stragglers' in-flight RPCs when we return early.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	//lint:allow taintflow -- measured wall clock for DistResult reporting; merged results never depend on it
	start := time.Now()
	participants := len(c.conns)
	if d.SingleNode {
		participants = 1
	}

	ch := make(chan outcome, 4*participants+4)
	issue := func(target, partition int, backup bool) {
		go func() {
			forNode := -1
			if backup {
				forNode = partition
			}
			issueStart := time.Now()
			resp, n, err := c.callRetry(ctx, target, &Request{Type: "query", Query: q, ForNode: forNode})
			o := outcome{node: partition, conn: target, err: err, backup: backup}
			if err == nil {
				t, terr := resp.Table.Table()
				if terr != nil {
					o.err = terr
				} else {
					o.part = part{table: t, ctr: resp.Counters, bytes: n, db: resp.DBBytes, plan: resp.Plan, dur: time.Since(issueStart)}
				}
			}
			ch <- o
		}()
	}
	for i := 0; i < participants; i++ {
		issue(i, i, false)
	}

	parts := make([]part, participants)
	done := make([]bool, participants)
	failedAt := make([]error, participants)
	inflight := make([]int, participants)
	redispatched := make([]bool, participants)
	for i := range inflight {
		inflight[i] = 1
	}
	var durations []time.Duration
	var healthy []int // conn indexes that answered successfully
	redispatches := 0

	// pickPeer returns a conn to re-dispatch partition i's query to:
	// the first healthy responder that isn't the partition's primary,
	// else round-robin over the other conns.
	pickPeer := func(i int) (int, bool) {
		for _, h := range healthy {
			if h != i {
				return h, true
			}
		}
		if len(c.conns) > 1 {
			return (i + 1) % len(c.conns), true
		}
		return 0, false
	}
	redispatch := func(i int) bool {
		if !c.cfg.Redispatch || redispatched[i] {
			return false
		}
		peer, ok := pickPeer(i)
		if !ok {
			return false
		}
		redispatched[i] = true
		redispatches++
		metricRedispatches.Inc()
		inflight[i]++
		issue(peer, i, true)
		return true
	}

	var stragglerC <-chan time.Time
	var stragglerTimer *time.Timer
	defer func() {
		if stragglerTimer != nil {
			stragglerTimer.Stop()
		}
	}()
	armStraggler := func() {
		if !c.cfg.Redispatch || stragglerTimer != nil || len(durations) < (participants+1)/2 {
			return
		}
		ds := append([]time.Duration(nil), durations...)
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		thr := time.Duration(float64(ds[len(ds)/2]) * c.cfg.StragglerMultiple)
		if thr < c.cfg.StragglerMin {
			thr = c.cfg.StragglerMin
		}
		wait := time.Until(start.Add(thr))
		if wait < 0 {
			wait = 0
		}
		stragglerTimer = time.NewTimer(wait)
		stragglerC = stragglerTimer.C
	}

	remaining := participants
collect:
	for remaining > 0 {
		select {
		case o := <-ch:
			if done[o.node] {
				continue // a slower duplicate already superseded
			}
			if o.err != nil {
				inflight[o.node]--
				if redispatch(o.node) {
					continue
				}
				if inflight[o.node] > 0 {
					continue // a backup is still in flight
				}
				done[o.node] = true
				failedAt[o.node] = o.err
				remaining--
				continue
			}
			done[o.node] = true
			parts[o.node] = o.part
			healthy = append(healthy, o.conn)
			durations = append(durations, time.Since(start))
			remaining--
			armStraggler()
		case <-stragglerC:
			stragglerC = nil
			for i := 0; i < participants; i++ {
				if !done[i] {
					redispatch(i)
				}
			}
		case <-ctx.Done():
			for i := 0; i < participants; i++ {
				if !done[i] {
					done[i] = true
					failedAt[i] = fmt.Errorf("cluster: Q%d node %d: %w", q, i, ctx.Err())
					remaining--
				}
			}
			break collect
		}
	}

	var failed []NodeError
	for i, err := range failedAt {
		if err != nil {
			failed = append(failed, NodeError{Node: i, Addr: c.cfg.Addrs[i], Err: err})
		}
	}

	res := &DistResult{Query: q, NodesUsed: participants - len(failed), Redispatches: redispatches}
	var tables []*colstore.Table
	for i := range parts {
		if failedAt[i] != nil {
			res.FailedNodes = append(res.FailedNodes, i)
			continue
		}
		tables = append(tables, parts[i].table)
		res.NodeCounters = append(res.NodeCounters, parts[i].ctr)
		res.NodePlans = append(res.NodePlans, parts[i].plan)
		res.NodeDBBytes = append(res.NodeDBBytes, parts[i].db)
		res.BytesReceived += parts[i].bytes
	}

	if len(failed) > 0 {
		perr := &PartialClusterError{Op: "query", Query: q, Failed: failed, Total: participants}
		if !c.cfg.AllowPartial || len(tables) == 0 {
			return nil, perr
		}
		res.Partial = true
		//lint:allow taintflow -- merge wall time feeds the merge span only
		mergeStart := time.Now()
		merged, mergeCtr, err := c.merge(q, d, tables)
		if err != nil {
			return nil, perr
		}
		res.Table = merged
		res.MergeCounters = mergeCtr
		res.HostDuration = time.Since(start)
		res.buildSpans(parts, failedAt, mergeCtr, time.Since(mergeStart))
		perr.Result = res
		return res, perr
	}

	//lint:allow taintflow -- merge wall time feeds the merge span only
	mergeStart := time.Now()
	merged, mergeCtr, err := c.merge(q, d, tables)
	if err != nil {
		return nil, err
	}
	res.Table = merged
	res.MergeCounters = mergeCtr
	res.HostDuration = time.Since(start)
	res.buildSpans(parts, failedAt, mergeCtr, time.Since(mergeStart))
	return res, nil
}

// SimOptions parameterize the simulated wall-clock of a distributed run.
type SimOptions struct {
	// NodeProfile is the per-node hardware (normally the Pi 3B+).
	NodeProfile hardware.Profile
	// Model converts work to time.
	Model hardware.Model
	// LinkBandwidthBps is the coordinator's ingest bandwidth.
	LinkBandwidthBps float64
	// PerMessageLatency is charged once per participating node.
	PerMessageLatency time.Duration
}

// DefaultSimOptions returns Pi 3B+ nodes on 220 Mbit/s links.
func DefaultSimOptions() SimOptions {
	return SimOptions{
		NodeProfile:       hardware.Pi(),
		Model:             hardware.DefaultModel(),
		LinkBandwidthBps:  PiLinkBandwidthBps,
		PerMessageLatency: 2 * time.Millisecond,
	}
}

// SimBreakdown reports where simulated distributed time went.
type SimBreakdown struct {
	// NodeSeconds is the slowest node's simulated local time.
	NodeSeconds float64
	// NetworkSeconds is partial-result transfer time.
	NetworkSeconds float64
	// MergeSeconds is the coordinator's merge time.
	MergeSeconds float64
	// Total is the simulated distributed wall-clock.
	Total float64
	// Thrashed reports whether any node exceeded its RAM.
	Thrashed bool
}

// Simulate converts a distributed run into the simulated wall-clock it
// would take on real WimPi hardware: the slowest node's local execution
// (including the §III-C.4 memory-pressure cliff when a node's working
// set exceeds its 1 GB), plus partial-result transfer over the throttled
// link, plus the coordinator-side merge.
func Simulate(res *DistResult, opt SimOptions) SimBreakdown {
	var b SimBreakdown
	for _, ctr := range res.NodeCounters {
		ex := opt.Model.Explain(&opt.NodeProfile, ctr, opt.NodeProfile.TotalCores())
		if ex.Total > b.NodeSeconds {
			b.NodeSeconds = ex.Total
		}
		if ex.SwapSeconds > 0 {
			b.Thrashed = true
		}
	}
	if opt.LinkBandwidthBps > 0 {
		b.NetworkSeconds = float64(res.BytesReceived*8) / opt.LinkBandwidthBps
	}
	b.NetworkSeconds += opt.PerMessageLatency.Seconds() * float64(res.NodesUsed)
	b.MergeSeconds = opt.Model.Explain(&opt.NodeProfile, res.MergeCounters, opt.NodeProfile.TotalCores()).Total
	if res.NodesUsed == 1 {
		// Single-node queries skip the network and merge path.
		b.NetworkSeconds = 0
		b.MergeSeconds = 0
	}
	b.Total = b.NodeSeconds + b.NetworkSeconds + b.MergeSeconds
	return b
}
