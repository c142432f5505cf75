package plan

// Property test for the unclustered group-by. The claim under test is the
// one groupedMorsel makes: whatever the key distribution, morsel size and
// worker count, it returns the same table — at one morsel, the table the
// sequential Grouper path returns — bit for bit, while charging counters
// that do not depend on the worker count.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// groupKeyDists are the key distributions of the property test; each
// returns n keys.
var groupKeyDists = []struct {
	name string
	keys func(rng *rand.Rand, n int) []int64
}{
	{"all-distinct", func(rng *rand.Rand, n int) []int64 {
		keys := make([]int64, n)
		for i, p := range rng.Perm(n) {
			keys[i] = int64(p) * 7919
		}
		return keys
	}},
	{"one-group", func(_ *rand.Rand, n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = 42
		}
		return keys
	}},
	{"zipf", func(rng *rand.Rand, n int) []int64 {
		z := rand.NewZipf(rng, 1.2, 1, uint64(n/2))
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(z.Uint64())
		}
		return keys
	}},
	// A dozen sparse keys in random order: a few fat groups.
	{"dozen", func(rng *rand.Rand, n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(12)) << 20
		}
		return keys
	}},
}

// groupTestTable builds the property test's input: the key, a tag derived
// from it (so a two-column key groups exactly like the key alone), float
// values that do not sum exactly, float values with NaNs, and ints.
func groupTestTable(rng *rand.Rand, keys []int64) *colstore.Table {
	b := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "k", Type: colstore.Int64},
		{Name: "tag", Type: colstore.String},
		{Name: "v", Type: colstore.Float64},
		{Name: "nanv", Type: colstore.Float64},
		{Name: "iv", Type: colstore.Int64},
	})
	tags := []string{"a", "b", "c"}
	for _, k := range keys {
		b.Int(0, k)
		b.Str(1, tags[int(k%3)])
		b.Float(2, rng.NormFloat64()*1e3+0.1)
		if rng.Intn(4) == 0 {
			b.Float(3, math.NaN())
		} else {
			b.Float(3, rng.NormFloat64())
		}
		b.Int(4, rng.Int63n(1000)-500)
		b.EndRow()
	}
	return b.Build()
}

func groupTestGroupBy() *GroupBy {
	return &GroupBy{
		Keys: []string{"k", "tag"},
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Arg: exec.Col{Name: "v"}},
			{Name: "a", Func: Avg, Arg: exec.Col{Name: "v"}},
			{Name: "lo", Func: Min, Arg: exec.Col{Name: "nanv"}},
			{Name: "hi", Func: Max, Arg: exec.Col{Name: "nanv"}},
			{Name: "si", Func: SumI, Arg: exec.Col{Name: "iv"}},
		},
	}
}

func TestGroupByProperty(t *testing.T) {
	const n = 3000
	g := groupTestGroupBy()
	for _, dist := range groupKeyDists {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := groupTestTable(rng, dist.keys(rng, n))
			cat := memCatalog{"t": in}
			// morsel 97: many morsel cuts inside every float sum, checked
			// across worker counts. morsel n: one morsel, so the sequential
			// Grouper path folds in the same order too.
			for _, morsel := range []int{97, n} {
				newCtx := func(workers int) *Context {
					return &Context{Cat: cat, Ctr: &exec.Counters{}, Workers: workers, MinParallelRows: 1, MorselRows: morsel}
				}
				var want *colstore.Table
				if morsel == n {
					seq := newCtx(1)
					seq.MinParallelRows = n + 1
					var err error
					if want, err = g.aggregate(seq, in); err != nil {
						t.Fatal(err)
					}
				}
				var base exec.Counters
				for _, w := range []int{1, 2, 4, 8} {
					label := fmt.Sprintf("%s seed %d morsel %d workers %d", dist.name, seed, morsel, w)
					ctx := newCtx(w)
					packed, err := packKeysParallel(ctx, in, g.Keys)
					if err != nil {
						t.Fatal(err)
					}
					got, err := g.groupedMorsel(ctx, in, packed)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if want == nil {
						want = got
					} else if same, where := colstore.TablesIdentical(want, got); !same {
						t.Fatalf("%s: differs: %s", label, where)
					}
					if w == 1 {
						base = *ctx.Ctr
					} else if *ctx.Ctr != base {
						t.Fatalf("%s: counters depend on the worker count:\n got %+v\nwant %+v", label, *ctx.Ctr, base)
					}
				}
			}
		}
	}

	// An all-distinct, unclustered input past every parallel threshold
	// still aggregates in morsels: nothing is partitioned.
	rng := rand.New(rand.NewSource(1))
	in := groupTestTable(rng, groupKeyDists[0].keys(rng, 20000))
	ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: 2, MinParallelRows: 1}
	got, err := g.aggregate(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 20000 || ctx.Ctr.PartitionBytes != 0 {
		t.Fatalf("all-distinct: %d groups, %d partition bytes; want 20000, 0", got.NumRows(), ctx.Ctr.PartitionBytes)
	}
}
