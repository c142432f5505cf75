// Package flow provides admission-control primitives for the serving
// runtime and the cluster's link emulation: a FIFO-fair token bucket
// and small helpers built on it.
//
// The paper's wimpy-node argument assumes the cluster degrades
// gracefully under load instead of collapsing; that requires the
// pacing layer to be fair (no waiter starves behind a stream of small
// requests) and cancellable (a queued waiter whose query died must not
// hold its place in line). The previous cluster token bucket had
// neither property: every waiter slept independently and re-raced for
// the mutex, so a small request could overtake an older large one
// forever, and a cancelled caller kept sleeping.
package flow

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// Clock abstracts wall time so token-bucket behavior is testable
// deterministically. The production clock is the real one; tests
// inject a manual clock and advance it explicitly.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time after d elapses.
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

//lint:allow taintflow -- pacing is inherently wall-clock-driven; it throttles work, never reorders results
func (realClock) Now() time.Time { return time.Now() }

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock is the production clock backed by the runtime timer.
var RealClock Clock = realClock{}

// waiter is one queued Wait call.
type waiter struct {
	need  float64
	ready chan struct{} // closed when the bucket has spent tokens for us
	kick  chan struct{} // poked when the queue ahead shrinks (capacity freed)
}

// TokenBucket paces work to a sustained rate with a bounded burst.
// Waiters are served strictly in arrival order: tokens are granted to
// the head of the queue first, so a stream of small requests can never
// starve an older large one. Wait respects context cancellation while
// queued — a cancelled waiter leaves the line immediately and its
// place (and any tokens already spent for it) goes to the next waiter.
//
// All methods are safe for concurrent use.
type TokenBucket struct {
	clock Clock
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	tokens  float64
	last    time.Time
	waiters list.List // of *waiter, FIFO
}

// NewTokenBucket returns a bucket refilling at rate tokens per second
// with capacity burst, using the real clock. The bucket starts full.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return NewTokenBucketClock(rate, burst, RealClock)
}

// NewTokenBucketClock is NewTokenBucket with an explicit clock, for
// deterministic tests.
func NewTokenBucketClock(rate, burst float64, clock Clock) *TokenBucket {
	if burst <= 0 {
		burst = 1
	}
	if rate <= 0 {
		rate = 1
	}
	return &TokenBucket{clock: clock, rate: rate, burst: burst, tokens: burst, last: clock.Now()}
}

// advanceLocked refills tokens for the time elapsed since the last
// refill, capped at the burst size.
func (b *TokenBucket) advanceLocked() {
	now := b.clock.Now()
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// slackLocked is the token balance error tolerated when granting: one
// nanosecond's worth of refill. Timers are nanosecond-granular, so a
// wake-up can arrive with the balance short by less than one tick of
// refill; demanding sub-tick precision would spin on re-armed timers.
func (b *TokenBucket) slackLocked() float64 { return b.rate / float64(time.Second) }

// grantLocked spends tokens for queued waiters from the front of the
// line while the balance suffices, waking each granted waiter.
func (b *TokenBucket) grantLocked() {
	for e := b.waiters.Front(); e != nil; e = b.waiters.Front() {
		w := e.Value.(*waiter)
		if b.tokens+b.slackLocked() < w.need {
			return
		}
		b.tokens -= w.need
		if b.tokens < 0 {
			b.tokens = 0
		}
		b.waiters.Remove(e)
		close(w.ready)
	}
}

// kickAllLocked pokes every queued waiter to re-estimate its wake-up:
// the queue ahead of it just shrank (a cancellation), so its old timer
// is too pessimistic.
func (b *TokenBucket) kickAllLocked() {
	for e := b.waiters.Front(); e != nil; e = e.Next() {
		select {
		case e.Value.(*waiter).kick <- struct{}{}:
		default:
		}
	}
}

// etaLocked returns how long until the waiter at e can be granted,
// assuming no cancellations ahead of it: the time to refill its own
// need plus everything queued before it. Always positive when called
// after grantLocked (anything satisfiable has already been granted).
func (b *TokenBucket) etaLocked(e *list.Element) time.Duration {
	need := -b.tokens
	for x := b.waiters.Front(); x != nil; x = x.Next() {
		need += x.Value.(*waiter).need
		if x == e {
			break
		}
	}
	if need <= b.slackLocked() {
		// A cancellation ahead of us freed tokens between grants; recheck
		// almost immediately.
		return time.Nanosecond
	}
	return time.Duration(need / b.rate * float64(time.Second))
}

// Wait blocks until n tokens are available and this caller is at the
// front of the line, then spends them. Requests larger than the burst
// are clamped to it (callers stream large transfers in chunks). It
// returns ctx's error if the context is cancelled while waiting; the
// caller's place in line is released to the waiters behind it.
func (b *TokenBucket) Wait(ctx context.Context, n float64) error {
	if n > b.burst {
		n = b.burst
	}
	if n <= 0 {
		return ctx.Err()
	}
	b.mu.Lock()
	b.advanceLocked()
	if b.waiters.Len() == 0 && b.tokens >= n {
		b.tokens -= n
		b.mu.Unlock()
		return ctx.Err()
	}
	w := &waiter{need: n, ready: make(chan struct{}), kick: make(chan struct{}, 1)}
	e := b.waiters.PushBack(w)
	d := b.etaLocked(e)
	b.mu.Unlock()

	for {
		// Each iteration arms a fresh timer; superseded timers fire into
		// their own abandoned channels (waits here are short, so the
		// garbage is bounded and brief).
		select {
		case <-w.ready:
			return nil
		case <-ctx.Done():
			b.mu.Lock()
			select {
			case <-w.ready:
				// Granted in the race window before we took the lock: the
				// tokens were spent for us but we are abandoning the send,
				// so refund them to the line behind us.
				b.tokens += n
				if b.tokens > b.burst {
					b.tokens = b.burst
				}
			default:
				b.waiters.Remove(e)
			}
			b.grantLocked()
			b.kickAllLocked()
			b.mu.Unlock()
			return ctx.Err()
		case <-w.kick:
			// The queue ahead shrank; fall through to re-estimate.
			b.mu.Lock()
			b.advanceLocked()
			b.grantLocked()
			select {
			case <-w.ready:
				b.mu.Unlock()
				return nil
			default:
			}
			d = b.etaLocked(e)
			b.mu.Unlock()
		case <-b.clock.After(d):
			b.mu.Lock()
			b.advanceLocked()
			b.grantLocked()
			select {
			case <-w.ready:
				b.mu.Unlock()
				return nil
			default:
			}
			// Not our turn yet (a timer estimate computed before an earlier
			// waiter enqueued, or rounding); re-estimate and keep waiting.
			d = b.etaLocked(e)
			b.mu.Unlock()
		}
	}
}

// Tokens reports the current balance (after refill). It is a snapshot
// for tests and metrics; the balance may change immediately.
func (b *TokenBucket) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.tokens
}

// QueueLen reports how many callers are waiting in line.
func (b *TokenBucket) QueueLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiters.Len()
}
