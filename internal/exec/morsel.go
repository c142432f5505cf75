package exec

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// MorselHook, when non-nil, observes every morsel dispatch: the worker
// count actually used and the number of morsels queued. The obs layer
// installs a hook feeding its metrics registry; the indirection exists
// because exec cannot import obs (obs records exec.Counters in spans).
// Set it once at startup, before queries run — it is read without
// synchronization.
var MorselHook func(workers, morsels int)

// DefaultMorselRows is the fixed morsel granularity used by parallel
// kernels when the caller does not override it. Morsel boundaries depend
// only on the input size — never on the worker count — so any
// order-sensitive merge of per-morsel partial results (floating-point
// sums above all) produces bit-identical output at every degree of
// parallelism, including one.
const DefaultMorselRows = 1 << 15

// NumMorsels returns the number of fixed-size morsels covering n rows.
// morselRows <= 0 selects DefaultMorselRows.
func NumMorsels(n, morselRows int) int {
	if n <= 0 {
		return 0
	}
	if morselRows <= 0 {
		morselRows = DefaultMorselRows
	}
	return (n + morselRows - 1) / morselRows
}

// RunMorsels splits the row range [0, n) into fixed-size morsels and
// executes fn once per morsel. Each invocation receives the morsel index
// m (dense, in range [0, NumMorsels(n, morselRows))), its row range
// [lo, hi), and a private Counters that is merged race-free into ctr
// after all morsels complete, in morsel order.
//
// Workers: with no Sched attached to ctr, up to workers goroutines pull
// morsels from a shared queue (one worker runs them inline on the
// calling goroutine). With a pool-attached Sched (Pool.Attach →
// Counters.SetSched), morsels are published to the shared pool and the
// calling goroutine participates, so the query always progresses while
// up to workers-1 pool workers contribute their fair share.
//
// Errors and cancellation: the first morsel error (in morsel order) is
// returned and stops the dispatch of further morsels; in-flight morsels
// finish. If ctr carries a Sched whose context is cancelled, dispatch
// stops the same way and the cancellation cause is returned. On any
// error nothing is merged into ctr — a failed or cancelled RunMorsels
// charges no work, and its partial output must not be consumed.
//
// With one worker the morsels run inline on the calling goroutine, in
// order, through the same per-morsel bookkeeping — so a 1-worker run is
// the sequential execution of exactly the same decomposition.
func RunMorsels(workers, n, morselRows int, ctr *Counters, fn func(m, lo, hi int, ctr *Counters) error) error {
	if n <= 0 {
		return nil
	}
	if morselRows <= 0 {
		morselRows = DefaultMorselRows
	}
	nm := (n + morselRows - 1) / morselRows
	w := workers
	if w < 1 {
		w = 1
	}
	if w > nm {
		w = nm
	}
	if hook := MorselHook; hook != nil {
		hook(w, nm)
	}
	sched := ctr.sched
	if err := sched.Err(); err != nil {
		return err
	}
	if nm == 1 {
		return fn(0, 0, n, ctr)
	}
	var parts []Counters
	var errs []error
	var ran int // morsels that executed to completion or error
	switch {
	case sched != nil && sched.q != nil && w > 1:
		b := runPooled(sched, w-1, n, morselRows, nm, fn)
		parts, errs, ran = b.parts, b.errs, b.ranCount
	case w == 1:
		parts = make([]Counters, nm)
		errs = make([]error, nm)
		for m := 0; m < nm; m++ {
			if err := sched.Err(); err != nil {
				return err
			}
			lo := m * morselRows
			hi := lo + morselRows
			if hi > n {
				hi = n
			}
			errs[m] = fn(m, lo, hi, &parts[m])
			ran++
			if errs[m] != nil {
				break
			}
		}
	default:
		parts = make([]Counters, nm)
		errs = make([]error, nm)
		var next, completed atomic.Int64
		var stopped atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				// Label the goroutine so CPU profiles attribute samples to
				// morsel workers rather than an anonymous spawn site.
				pprof.Do(context.Background(), pprof.Labels("wimpi", "morsel-worker", "worker", strconv.Itoa(worker)), func(context.Context) {
					for {
						if stopped.Load() || sched.Err() != nil {
							return
						}
						m := int(next.Add(1)) - 1
						if m >= nm {
							return
						}
						lo := m * morselRows
						hi := lo + morselRows
						if hi > n {
							hi = n
						}
						errs[m] = fn(m, lo, hi, &parts[m])
						completed.Add(1)
						if errs[m] != nil {
							stopped.Store(true)
							return
						}
					}
				})
			}(i)
		}
		wg.Wait()
		ran = int(completed.Load())
	}
	for m := 0; m < nm; m++ {
		if errs[m] != nil {
			return errs[m]
		}
	}
	if ran < nm {
		// Dispatch stopped early with no morsel error: cancellation. The
		// cause is returned and nothing merges — the partial decomposition
		// must never look like a completed one.
		if err := sched.Err(); err != nil {
			return err
		}
		return context.Cause(sched.Context())
	}
	for m := range parts {
		ctr.Add(parts[m])
	}
	return nil
}

// runMorselsInfallible is RunMorsels for callbacks that cannot fail —
// the absence of an error return makes infallibility a property of the
// callback's type instead of a reviewer's claim. The returned error is
// cancellation-only: it is non-nil exactly when the query's Sched was
// cancelled mid-run, and callers must propagate it so a cancelled
// query's partial output is never consumed.
func runMorselsInfallible(workers, n, morselRows int, ctr *Counters, fn func(m, lo, hi int, ctr *Counters)) error {
	return RunMorsels(workers, n, morselRows, ctr, func(m, lo, hi int, c *Counters) error {
		fn(m, lo, hi, c)
		return nil
	})
}
