package engine_test

import (
	"context"
	"testing"

	"wimpi/internal/engine"
	"wimpi/internal/tpch"
)

// TestStringMasksChargedOncePerSelection pins, at SF 0.1 and seed 42,
// the string-predicate charges that once grew with the morsel count: a
// LIKE (Q13's o_comment) or IN list (Q12's and Q19's l_shipmode) builds
// its dictionary mask once a selection, so IntOps and RandomAccesses are
// the same at 1, 2 and 4 workers.
func TestStringMasksChargedOncePerSelection(t *testing.T) {
	data := tpch.Generate(tpch.Config{SF: 0.1, Seed: 42})
	db := engine.NewDB(engine.Config{})
	data.RegisterAll(db)
	for _, c := range []struct {
		q     int
		field string
		want  int64
		get   func(r *engine.Result) int64
	}{
		{13, "IntOps", 426154, func(r *engine.Result) int64 { return r.Counters.IntOps }},
		{12, "RandomAccesses", 418753, func(r *engine.Result) int64 { return r.Counters.RandomAccesses }},
		{19, "RandomAccesses", 495910, func(r *engine.Result) int64 { return r.Counters.RandomAccesses }},
	} {
		p, err := tpch.Query(db, c.q)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4} {
			res, err := db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: w})
			if err != nil {
				t.Fatalf("Q%d at %d workers: %v", c.q, w, err)
			}
			if got := c.get(res); got != c.want {
				t.Errorf("Q%d at %d workers: %s = %d, want %d", c.q, w, c.field, got, c.want)
			}
		}
	}
}
