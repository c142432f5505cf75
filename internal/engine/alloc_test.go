package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"wimpi/internal/engine"
	"wimpi/internal/tpch"
)

// TestAllocationsIgnoreGC: a query's host allocations are a property of
// the program, not of when the GC last ran. Q2 and Q15 run at two
// workers (at SF 0.01 lineitem's 60 k rows span two morsels), warmed up,
// then measured plain and right after two GCs, which would empty a
// sync.Pool and its victim cache. The two must allocate within 1 % of
// each other: scratch a kernel reuses belongs to the query's runners,
// not to anything a GC may drop. What a GC empties outside the program
// is refilled before each measured run (refillStdCaches), and each side
// keeps the lowest of three runs: the runtime's caches still move a run
// at random, while what a GC drops from the program's scratch raises
// every run after it.
func TestAllocationsIgnoreGC(t *testing.T) {
	data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	db := engine.NewDB(engine.Config{})
	data.RegisterAll(db)
	for _, q := range []int{2, 15} {
		p, err := tpch.Query(db, q)
		if err != nil {
			t.Fatal(err)
		}
		lowest := func(gc bool) uint64 {
			var low uint64
			for i := range 3 {
				if gc {
					runtime.GC()
					runtime.GC()
					refillStdCaches()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: 2}); err != nil {
					t.Fatalf("Q%d: %v", q, err)
				}
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < low {
					low = n
				}
			}
			return low
		}
		lowest(false) // warm up
		warm, cold := lowest(false), lowest(true)
		t.Logf("Q%d: %d B warm, %d B after two GCs", q, warm, cold)
		if d := float64(cold) - float64(warm); d > 0.01*float64(warm) || -d > 0.01*float64(warm) {
			t.Fatalf("Q%d allocated %d B after two GCs, %d B without: %+.1f %%", q, cold, warm, 100*d/float64(warm))
		}
	}
}

// refillStdCaches refills what a GC empties outside the program: fmt's
// printer pool (span labels are formatted on every run) and the
// runtime's goroutine and sudog caches (a batch spawns a helper and
// waits for it).
func refillStdCaches() {
	_ = fmt.Sprintf("%d", 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { wg.Done() }()
	wg.Wait()
}
