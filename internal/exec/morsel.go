package exec

import "context"

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

// Serial reports whether n rows run through a kernel's sequential path
// rather than its morsels: at one worker, or when n is shorter than one
// morsel. It is the engine's one parallelism rule; every kernel that can
// split its input, here and in package plan, asks it. morselRows <= 0
// selects DefaultMorselRows.
func Serial(workers, n, morselRows int) bool {
	return workers <= 1 || n < morselRowsOrDefault(morselRows)
}

// NumMorsels returns the number of fixed-size morsels covering n rows.
// morselRows <= 0 selects DefaultMorselRows.
func NumMorsels(n, morselRows int) int {
	if n <= 0 {
		return 0
	}
	morselRows = morselRowsOrDefault(morselRows)
	return (n + morselRows - 1) / morselRows
}

func morselRowsOrDefault(morselRows int) int {
	if morselRows <= 0 {
		return DefaultMorselRows
	}
	return morselRows
}

// RunMorsels splits the row range [0, n) into fixed-size morsels and
// executes fn once per morsel. Each invocation receives the morsel index
// m (dense, in range [0, NumMorsels(n, morselRows))), its row range
// [lo, hi), and a private Counters that is merged race-free into ctr
// after all morsels complete, in morsel order.
//
// Workers: the morsels form one batch (runBatch). The calling goroutine
// drains it while up to workers-1 helpers drain it beside it: the
// shared pool's workers, with their fair share, when ctr carries a
// pool-attached Sched (Pool.Attach → Counters.SetSched), and goroutines
// spawned for this call otherwise. With one worker there are no helpers,
// so a 1-worker run is the sequential execution of exactly the same
// decomposition, through the same claim and merge.
//
// Errors and cancellation: the first morsel error (in morsel order) is
// returned and stops the dispatch of further morsels; in-flight morsels
// finish. If ctr carries a Sched whose context is cancelled, dispatch
// stops the same way and the cancellation cause is returned. On any
// error nothing is merged into ctr — a failed or cancelled RunMorsels
// charges no work, and its partial output must not be consumed.
func RunMorsels(workers, n, morselRows int, ctr *Counters, fn func(m, lo, hi int, ctr *Counters) error) error {
	if n <= 0 {
		return nil
	}
	morselRows = morselRowsOrDefault(morselRows)
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
	b := runBatch(sched, ctr.scratch, w-1, n, morselRows, nm, fn)
	for m := 0; m < nm; m++ {
		if b.errs[m] != nil {
			return b.errs[m]
		}
	}
	if b.next < nm {
		// Dispatch stopped early with no morsel error: cancellation. The
		// cause is returned and nothing merges — the partial decomposition
		// must never look like a completed one.
		if err := sched.Err(); err != nil {
			return err
		}
		return context.Cause(sched.Context())
	}
	for m := range b.parts {
		ctr.Add(b.parts[m])
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
