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
	"slices"
	"strconv"
	"sync"
)

// Sched is one query's scheduling handle: a cancellation context,
// (optionally) a queue in a shared Pool, and the query's runner scratch.
// A nil *Sched is valid and means "no cancellation, no pool, no scratch"
// — the default for every caller that never attaches one.
type Sched struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	q      *poolQuery // nil when the query runs outside a pool
	slots  []*Scratch // slot 0 the caller's, slot i helper i's
}

// Scratch is one runner's reusable state, reached through the Counters
// a kernel receives; no two running morsels share one.
type Scratch struct {
	sels  [][]int32 // free selection buffers (lendSel), a stack
	Group any       // the plan layer's group-by state
}

// spares holds released handles' scratch sets: queries run one after
// another reuse one set, and no GC drops it between them.
var spares struct {
	mu   sync.Mutex
	sets [][]*Scratch
}

// NewSched returns a pool-less scheduling handle derived from ctx:
// kernels observe ctx's cancellation (and Cancel's) between morsels.
func NewSched(ctx context.Context) *Sched {
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancelCause(ctx)
	s := &Sched{ctx: cctx, cancel: cancel}
	spares.mu.Lock()
	if n := len(spares.sets); n > 0 {
		s.slots, spares.sets = spares.sets[n-1], spares.sets[:n-1]
	} else {
		s.slots = []*Scratch{new(Scratch)}
	}
	spares.mu.Unlock()
	return s
}

// helperSlots returns helpers 1..n's scratch, growing the set on the
// calling goroutine; a nil handle's (a nested batch's) are all nil.
func (s *Sched) helperSlots(n int) []*Scratch {
	if s == nil {
		return make([]*Scratch, n)
	}
	for len(s.slots) <= n {
		s.slots = append(s.slots, new(Scratch))
	}
	return s.slots[1 : n+1]
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

// Release cancels the handle's context, detaches a pool-attached query
// and gives its scratch set back, once however often it is called.
// Callers that Attach must Release; afterwards it schedules nothing.
func (s *Sched) Release() {
	if s == nil {
		return
	}
	s.cancel(context.Canceled)
	if s.q != nil {
		s.q.pool.detach(s.q)
		s.q = nil
	}
	spares.mu.Lock()
	if s.slots != nil {
		spares.sets = append(spares.sets, s.slots)
		s.slots = nil
	}
	spares.mu.Unlock()
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
// instead of deadlocking. A batch run at w workers admits at most w-1
// helpers at once, the caller being the w-th.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	qs     []*poolQuery
	closed bool
	wg     sync.WaitGroup
}

// poolQuery is one attached query's scheduling state.
type poolQuery struct {
	pool    *Pool
	weight  int64
	served  int64 // morsels executed on this query's behalf
	batches []*batch
}

// batch is one RunMorsels decomposition of more than one morsel: a
// fixed morsel split plus the claim/finish bookkeeping that its caller
// and helpers share. mu guards the claim state (helping, next,
// stopped): inside a pool it is the pool's lock, because pool workers
// pick batches under it; outside one it is the batch's own ownLock.
type batch struct {
	sched      *Sched
	q          *poolQuery // the query's pool membership; nil outside a pool
	mu         *sync.Mutex
	ownLock    sync.Mutex
	n          int
	morselRows int
	nm         int
	fn         func(m, lo, hi int, ctr *Counters) error
	parts      []Counters
	errs       []error
	free       []*Scratch // the pool helpers' scratch not in use

	helpers int  // most pool workers that may run its morsels at once
	helping int  // pool workers running its morsels now
	next    int  // first unclaimed morsel
	stopped bool // error or cancellation: dispatch no new morsels
	// running counts claimed but unfinished morsels, plus the helpers
	// spawned for this batch until they return.
	running sync.WaitGroup
}

// NewPool starts a pool of size worker goroutines. size < 1 selects 1.
// Close joins them.
//
//lint:allow pathcost -- pool construction moves no data; morsel callbacks charge Counters
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < size; i++ {
		p.wg.Add(1)
		// Joined by Close via p.wg.
		go func(worker int) {
			defer p.wg.Done()
			pprof.Do(context.Background(), pprof.Labels("wimpi", "pool-worker", "worker", strconv.Itoa(worker)), func(context.Context) {
				p.work()
			})
		}(i)
	}
	return p
}

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

// claimAny picks one morsel and a free slot from the attached query with
// the least served/weight that has a runnable batch. It blocks until work
// arrives or the pool closes; ok=false means the worker should exit.
func (p *Pool) claimAny() (b *batch, m int, sc *Scratch, ok bool) {
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
			b.helping++
			sc := b.free[len(b.free)-1]
			b.free = b.free[:len(b.free)-1]
			return b, b.claimLocked(), sc, true
		}
		if p.closed {
			return nil, 0, nil, false
		}
		p.cond.Wait()
	}
}

// runnable returns the query's first batch with unclaimed morsels and a
// free helper slot, pruning exhausted ones. Caller holds the pool lock.
func (q *poolQuery) runnable() *batch {
	for i := 0; i < len(q.batches); {
		b := q.batches[i]
		if b.sched.Context().Err() != nil {
			b.stopped = true
		}
		if b.stopped || b.next >= b.nm {
			q.batches = slices.Delete(q.batches, i, i+1)
			continue
		}
		if b.helping < b.helpers {
			return b
		}
		i++
	}
	return nil
}

// work is one pool worker's loop.
func (p *Pool) work() {
	for {
		b, m, sc, ok := p.claimAny()
		if !ok {
			return
		}
		b.run(m, sc)
		b.finish(m, sc)
	}
}

// runBatch runs one RunMorsels decomposition of nm > 1 morsels. The
// calling goroutine drains the batch while up to helpers others drain
// it beside it: the pool's workers, at their fair share, when s is
// pool-attached, and goroutines spawned for this batch otherwise. It
// returns once every claimed morsel has finished and every spawned
// helper has exited, so no goroutine outlives RunMorsels. The caller
// runs in own, spawned helper i in slot i, a pool helper in a free one.
func runBatch(s *Sched, own *Scratch, helpers, n, morselRows, nm int, fn func(m, lo, hi int, ctr *Counters) error) *batch {
	b := &batch{
		sched:      s,
		n:          n,
		morselRows: morselRows,
		nm:         nm,
		fn:         fn,
		parts:      make([]Counters, nm),
		errs:       make([]error, nm),
	}
	b.mu = &b.ownLock
	if s != nil && s.q != nil {
		b.q = s.q
		b.mu = &s.q.pool.mu
	}
	slots := s.helperSlots(helpers)
	switch {
	case helpers == 0:
	case b.q != nil:
		b.helpers, b.free = helpers, slots
		b.q.pool.enqueue(b.q, b)
	default:
		b.running.Add(helpers)
		for i := 1; i <= helpers; i++ {
			go func(worker int) {
				defer b.running.Done()
				// Label the goroutine so CPU profiles attribute samples to
				// morsel workers rather than an anonymous spawn site.
				pprof.Do(context.Background(), pprof.Labels("wimpi", "morsel-worker", "worker", strconv.Itoa(worker)), func(context.Context) {
					b.drain(slots[worker-1])
				})
			}(i)
		}
	}
	b.drain(own)
	b.running.Wait()
	return b
}

// drain runs morsels of b in sc on one of its own runners — the caller
// or a helper spawned for the batch — until none is left to claim or
// dispatch stopped.
func (b *batch) drain(sc *Scratch) {
	for {
		m, ok := b.claimOwn()
		if !ok {
			return
		}
		b.run(m, sc)
		b.finish(m, nil)
	}
}

// claimOwn claims the next morsel of b for one of its own runners.
func (b *batch) claimOwn() (m int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped || b.next >= b.nm || b.sched.Err() != nil {
		return 0, false
	}
	return b.claimLocked(), true
}

// claimLocked claims the next morsel and counts it as served to the
// query's pool share. Caller holds b.mu and has checked that one is left.
func (b *batch) claimLocked() int {
	m := b.next
	b.next++
	b.running.Add(1)
	if b.q != nil {
		b.q.served++
	}
	return m
}

// run executes morsel m into its private counters, which carry sc.
func (b *batch) run(m int, sc *Scratch) {
	lo := m * b.morselRows
	hi := lo + b.morselRows
	if hi > b.n {
		hi = b.n
	}
	b.parts[m].scratch = sc
	b.errs[m] = b.fn(m, lo, hi, &b.parts[m])
	b.parts[m].scratch = nil
}

// finish records one morsel's completion. A morsel error stops further
// dispatch. A pool helper gives its slot back, and one that frees the
// last place of a full batch wakes one idle worker, which may take it.
func (b *batch) finish(m int, poolSlot *Scratch) {
	b.mu.Lock()
	if b.errs[m] != nil {
		b.stopped = true
	}
	wake := false
	if poolSlot != nil {
		b.free = append(b.free, poolSlot)
		wake = b.helping == b.helpers
		b.helping--
	}
	b.mu.Unlock()
	if wake {
		b.q.pool.cond.Signal()
	}
	b.running.Done()
}
