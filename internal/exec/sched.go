package exec

// Per-query morsel scheduling. A Sched is the handle that threads a
// query's cancellation context — and, optionally, its membership in a
// shared worker Pool — through every kernel. Kernels never see it
// directly: the handle rides on the query's root Counters (SetSched),
// which every kernel already receives, so RunMorsels can observe
// cancellation and route morsels through the pool without a single
// kernel signature carrying scheduler state.
//
// Determinism is untouched: a Sched changes who executes a morsel and
// whether a query is cut short, never the morsel decomposition or the
// morsel-order merge of per-morsel counters. A query that completes
// produces byte-identical results with any pool, any weight, and any
// number of concurrent neighbors.

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
)

// Sched is one query's scheduling handle: a cancellation context plus
// (optionally) a queue in a shared Pool. A nil *Sched is valid and means
// "no cancellation, no pool" — the zero-cost default for every caller
// that never attaches one.
type Sched struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	q      *poolQuery // nil when the query runs outside a pool
}

// NewSched returns a pool-less scheduling handle derived from ctx:
// kernels observe ctx's cancellation (and Cancel's) between morsels.
func NewSched(ctx context.Context) *Sched {
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancelCause(ctx)
	return &Sched{ctx: cctx, cancel: cancel}
}

// Context returns the handle's cancellation context.
func (s *Sched) Context() context.Context {
	if s == nil {
		return context.Background()
	}
	return s.ctx
}

// Err returns the cancellation cause once the query is cancelled, nil
// before that (and always nil for a nil handle).
func (s *Sched) Err() error {
	if s == nil {
		return nil
	}
	if s.ctx.Err() != nil {
		return context.Cause(s.ctx)
	}
	return nil
}

// Cancel cancels the query with the given cause. Kernels stop
// dispatching new morsels at the next morsel boundary; in-flight
// morsels finish. Safe on a nil handle (no-op).
func (s *Sched) Cancel(cause error) {
	if s == nil {
		return
	}
	s.cancel(cause)
}

// Release cancels the handle's context and, for pool-attached handles,
// detaches the query from the pool. Callers that Attach must Release;
// afterwards the handle schedules nothing.
func (s *Sched) Release() {
	if s == nil {
		return
	}
	s.cancel(context.Canceled)
	if s.q != nil {
		s.q.pool.detach(s.q)
		s.q = nil
	}
}

// Pool is a fixed set of worker goroutines shared by every concurrent
// query attached to it. Queries enqueue batches of morsels; workers pick
// the next morsel from the attached query with the least service per
// unit weight, so N concurrent queries of equal weight each see ~1/N of
// the pool regardless of who arrived first or who has more morsels
// queued (fair share, with morsel boundaries as the preemption points).
//
// The goroutine that calls RunMorsels always executes morsels from its
// own batch while it waits, so every query keeps at least one worker
// even when the pool is saturated — pool workers are bonus helpers, and
// a closed or empty pool degrades to plain single-caller execution
// instead of deadlocking.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	qs     []*poolQuery
	closed bool
	wg     sync.WaitGroup
	size   int
}

// poolQuery is one attached query's scheduling state.
type poolQuery struct {
	pool    *Pool
	weight  int64
	served  int64 // morsels executed on this query's behalf
	batches []*batch
}

// batch is one RunMorsels invocation routed through a pool: a fixed
// morsel decomposition plus claim/finish bookkeeping.
type batch struct {
	sched      *Sched
	n          int
	morselRows int
	nm         int
	fn         func(m, lo, hi int, ctr *Counters) error
	parts      []Counters
	errs       []error

	next     int  // first unclaimed morsel
	inflight int  // claimed but unfinished morsels
	ranCount int  // morsels executed to completion or error
	stopped  bool // error or cancellation: dispatch no new morsels
	done     chan struct{}
}

// NewPool starts a pool of size worker goroutines. size < 1 selects 1.
// Close joins them.
//
//lint:allow pathcost -- pool construction moves no data; morsel callbacks charge Counters
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{size: size}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < size; i++ {
		p.wg.Add(1)
		//lint:allow goroutines -- pool workers are joined by Close via p.wg
		go func(worker int) {
			defer p.wg.Done()
			pprof.Do(context.Background(), pprof.Labels("wimpi", "pool-worker", "worker", strconv.Itoa(worker)), func(context.Context) {
				p.work()
			})
		}(i)
	}
	return p
}

// Size reports the number of pool workers.
func (p *Pool) Size() int { return p.size }

// Close stops the workers and waits for them to exit. Attached queries
// keep working: their callers execute their own batches to completion.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Attach registers a query with the pool and returns its scheduling
// handle. weight < 1 selects 1; a query with weight 2 receives twice the
// pool share of a query with weight 1. The caller must Release the
// handle when the query finishes.
func (p *Pool) Attach(ctx context.Context, weight int) *Sched {
	s := NewSched(ctx)
	if weight < 1 {
		weight = 1
	}
	q := &poolQuery{pool: p, weight: int64(weight)}
	s.q = q
	p.mu.Lock()
	p.qs = append(p.qs, q)
	p.mu.Unlock()
	return s
}

func (p *Pool) detach(q *poolQuery) {
	p.mu.Lock()
	for i, x := range p.qs {
		if x == q {
			p.qs = append(p.qs[:i], p.qs[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// enqueue publishes a batch and wakes workers.
func (p *Pool) enqueue(q *poolQuery, b *batch) {
	p.mu.Lock()
	q.batches = append(q.batches, b)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// claimAny picks one morsel from the attached query with the least
// served/weight that has a runnable batch. It blocks until work arrives
// or the pool closes; ok=false means the worker should exit.
func (p *Pool) claimAny() (b *batch, m int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		var best *poolQuery
		for _, q := range p.qs {
			qb := q.runnable()
			if qb == nil {
				continue
			}
			// Least service per unit weight; ties go to the earlier
			// attach (stable iteration order), so no query starves.
			if best == nil || q.served*best.weight < best.served*q.weight {
				best = q
			}
		}
		if best != nil {
			b := best.runnable()
			m := b.next
			b.next++
			b.inflight++
			best.served++
			return b, m, true
		}
		if p.closed {
			return nil, 0, false
		}
		p.cond.Wait()
	}
}

// runnable returns the query's first batch with unclaimed morsels,
// pruning exhausted ones. Caller holds the pool lock.
func (q *poolQuery) runnable() *batch {
	for len(q.batches) > 0 {
		b := q.batches[0]
		if b.stopped || b.next >= b.nm {
			q.batches = q.batches[1:]
			continue
		}
		if b.sched.Context().Err() != nil {
			b.stopped = true
			q.batches = q.batches[1:]
			continue
		}
		return b
	}
	return nil
}

// claimOwn claims the next morsel of b for its calling goroutine.
func (p *Pool) claimOwn(b *batch) (m int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.stopped || b.next >= b.nm || b.sched.Context().Err() != nil {
		return 0, false
	}
	m = b.next
	b.next++
	b.inflight++
	if b.sched.q != nil {
		b.sched.q.served++
	}
	return m, true
}

// finish records one morsel's completion and closes done when the batch
// drains. A morsel error stops further dispatch.
func (p *Pool) finish(b *batch, m int) {
	p.mu.Lock()
	if b.errs[m] != nil {
		b.stopped = true
	}
	b.inflight--
	b.ranCount++
	complete := b.inflight == 0 && (b.stopped || b.next >= b.nm || b.sched.Context().Err() != nil)
	p.mu.Unlock()
	if complete {
		select {
		case <-b.done:
		default:
			close(b.done)
		}
	}
}

// work is one pool worker's loop.
func (p *Pool) work() {
	for {
		b, m, ok := p.claimAny()
		if !ok {
			return
		}
		b.run(m)
		p.finish(b, m)
	}
}

// run executes morsel m of the batch into its private counters.
func (b *batch) run(m int) {
	lo := m * b.morselRows
	hi := lo + b.morselRows
	if hi > b.n {
		hi = b.n
	}
	b.errs[m] = b.fn(m, lo, hi, &b.parts[m])
}

// runPooled executes one RunMorsels decomposition through the query's
// pool: the caller participates (guaranteeing progress even on a
// saturated or closed pool) while pool workers steal morsels according
// to the fair-share policy.
func runPooled(s *Sched, n, morselRows, nm int, fn func(m, lo, hi int, ctr *Counters) error) *batch {
	b := &batch{
		sched:      s,
		n:          n,
		morselRows: morselRows,
		nm:         nm,
		fn:         fn,
		parts:      make([]Counters, nm),
		errs:       make([]error, nm),
		done:       make(chan struct{}),
	}
	p := s.q.pool
	p.enqueue(s.q, b)
	for {
		m, ok := p.claimOwn(b)
		if !ok {
			break
		}
		b.run(m)
		p.finish(b, m)
	}
	// The caller ran out of claimable morsels (exhausted, stopped, or
	// cancelled); wait for in-flight morsels owned by pool workers.
	p.mu.Lock()
	waiting := b.inflight > 0
	p.mu.Unlock()
	if waiting {
		<-b.done
	}
	return b
}
