package exec

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// spareSets returns the scratch sets on the spare list, most recent last.
func spareSets() [][]*Scratch {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	return append([][]*Scratch(nil), spares.sets...)
}

// morselRecord is one morsel's run: the scratch its counters carried,
// when it started and ended on a shared clock, and on which goroutine.
// A nested morsel's host is the outer morsel that ran its batch.
type morselRecord struct {
	sc         *Scratch
	start, end int64
	g          string
	query      int
	host       *morselRecord
}

// TestRunnerScratch: every morsel runs in its runner's scratch. No two
// overlapping morsels share one, a query touches at most w, the caller's
// morsels run in the root counters' slot, a nested batch's helpers get
// none, and Release gives the set back exactly once.
func TestRunnerScratch(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, pooled := range []bool{false, true} {
			var pool *Pool
			queries := 1
			if pooled {
				pool, queries = NewPool(3), 2
			}
			var clock atomic.Int64
			var mu sync.Mutex
			var recs, nested []morselRecord
			scheds := make([]*Sched, queries)
			roots := make([]*Scratch, queries)
			callers := make([]string, queries)
			var wg sync.WaitGroup
			for q := range queries {
				if pooled {
					scheds[q] = pool.Attach(context.Background(), 1)
				} else {
					scheds[q] = NewSched(context.Background())
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					var ctr Counters
					ctr.SetSched(scheds[q])
					roots[q], callers[q] = ctr.Scratch(), goid()
					err := RunMorsels(w, 48, 1, &ctr, func(m, _, _ int, c *Counters) error {
						r := morselRecord{sc: c.Scratch(), start: clock.Add(1), g: goid(), query: q}
						s := lendSel(c, 64)
						s[0] = int32(m)
						if r.sc != nil {
							r.sc.Group = m // a shared scratch is a data race under -race
						}
						time.Sleep(100 * time.Microsecond)
						giveSel(c, s)
						if m%16 == 0 {
							_ = RunMorsels(4, 8, 1, c, func(_, _, _ int, nc *Counters) error {
								mu.Lock()
								nested = append(nested, morselRecord{sc: nc.Scratch(), g: goid(), host: &r})
								mu.Unlock()
								time.Sleep(50 * time.Microsecond)
								return nil
							})
						}
						r.end = clock.Add(1)
						mu.Lock()
						recs = append(recs, r)
						mu.Unlock()
						return nil
					})
					if err != nil {
						t.Errorf("w=%d pooled=%v: RunMorsels: %v", w, pooled, err)
					}
				}()
			}
			wg.Wait()
			if pool != nil {
				pool.Close()
			}

			used := make([]map[*Scratch]bool, queries)
			for q := range used {
				used[q] = map[*Scratch]bool{}
				if roots[q] == nil {
					t.Fatalf("w=%d pooled=%v: query %d's root counters carry no scratch", w, pooled, q)
				}
			}
			for i, a := range recs {
				if a.sc == nil {
					t.Fatalf("w=%d pooled=%v: a morsel ran without scratch", w, pooled)
				}
				used[a.query][a.sc] = true
				if (a.g == callers[a.query]) != (a.sc == roots[a.query]) {
					t.Fatalf("w=%d pooled=%v: on the caller %v, in the root slot %v", w, pooled, a.g == callers[a.query], a.sc == roots[a.query])
				}
				for _, b := range recs[i+1:] {
					if a.sc == b.sc && a.start < b.end && b.start < a.end {
						t.Fatalf("w=%d pooled=%v: two overlapping morsels share a scratch", w, pooled)
					}
				}
			}
			for q := range used {
				if len(used[q]) > w {
					t.Fatalf("w=%d pooled=%v: query %d touched %d scratches", w, pooled, q, len(used[q]))
				}
			}
			if len(nested) != 3*queries*8 {
				t.Fatalf("w=%d pooled=%v: %d nested morsels ran, want %d", w, pooled, len(nested), 3*queries*8)
			}
			for _, n := range nested {
				if n.g == n.host.g && n.sc != n.host.sc {
					t.Fatalf("w=%d pooled=%v: a nested morsel on its outer runner did not get the runner's scratch", w, pooled)
				}
				if n.g != n.host.g && n.sc != nil {
					t.Fatalf("w=%d pooled=%v: a nested batch's helper got a scratch", w, pooled)
				}
			}

			for q, s := range scheds {
				before := len(spareSets())
				s.Release()
				s.Release()
				sets := spareSets()
				if len(sets) != before+1 || sets[len(sets)-1][0] != roots[q] {
					t.Fatalf("w=%d pooled=%v: Release twice moved the spare list from %d to %d sets", w, pooled, before, len(sets))
				}
			}
			// The next handle reuses the set released last.
			s := NewSched(context.Background())
			var ctr Counters
			ctr.SetSched(s)
			if ctr.Scratch() != roots[queries-1] {
				t.Fatalf("w=%d pooled=%v: NewSched did not take the last released set", w, pooled)
			}
			s.Release()
		}
	}
}
