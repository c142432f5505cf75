package plan

// Property test and micro-benchmark for the radix-partitioned group-by.
// The claim under test is the one radixgroupby.go makes: whatever the key
// distribution, fan-out and worker count, groupedRadix returns the table
// groupedMorsel returns, bit for bit — and, when the input is a single
// morsel, the table the sequential Grouper path returns — while charging
// counters that do not depend on the worker count.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// radixKeyDists are the key distributions of the property test; each
// returns n keys.
var radixKeyDists = []struct {
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
	// A dozen keys under a 16- or 256-way fan-out: most partitions are
	// empty, the rest hold one or two fat groups.
	{"clustered", func(rng *rand.Rand, n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(12)) << 20
		}
		return keys
	}},
}

// radixTestTable builds the property test's input: the key, a tag derived
// from it (so a two-column key groups exactly like the key alone), float
// values that do not sum exactly, float values with NaNs, and ints.
func radixTestTable(rng *rand.Rand, keys []int64) *colstore.Table {
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

func radixTestGroupBy() *GroupBy {
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

// radixTarget returns the LLC budget under which groupedRadix fans n
// estimated groups out 2^bits ways.
func radixTarget(t testing.TB, n, naggs int, bits uint) int64 {
	t.Helper()
	target := 2 * (int64(n) * radixGroupBytesPerRow(naggs) >> bits)
	if got := exec.RadixBits(n, radixGroupBytesPerRow(naggs), target/2); got != bits {
		t.Fatalf("budget %d gives %d radix bits, want %d", target, got, bits)
	}
	return target
}

func TestRadixGroupByProperty(t *testing.T) {
	const n = 3000
	g := radixTestGroupBy()
	for _, dist := range radixKeyDists {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := radixTestTable(rng, dist.keys(rng, n))
			cat := memCatalog{"t": in}
			// morsel 97: many morsel cuts inside every float sum, checked
			// against groupedMorsel. morsel n: one morsel, so the
			// sequential Grouper path folds in the same order too.
			for _, morsel := range []int{97, n} {
				newCtx := func(workers int) *Context {
					return &Context{Cat: cat, Ctr: &exec.Counters{}, Workers: workers, MinParallelRows: 1, MorselRows: morsel}
				}
				ctx := newCtx(1)
				packed, err := packKeysParallel(ctx, in, g.Keys)
				if err != nil {
					t.Fatal(err)
				}
				refs := map[string]*colstore.Table{}
				if refs["groupedMorsel"], err = g.groupedMorsel(ctx, in, packed); err != nil {
					t.Fatal(err)
				}
				if morsel == n {
					seq := newCtx(1)
					seq.MinParallelRows = n + 1
					if refs["sequential Grouper"], err = g.aggregate(seq, in); err != nil {
						t.Fatal(err)
					}
				}
				// 4 bits is one scatter pass, 8 bits is two.
				for _, bits := range []uint{4, 8} {
					target := radixTarget(t, n, len(g.Aggs), bits)
					var base exec.Counters
					for _, w := range []int{1, 2, 4, 8} {
						label := fmt.Sprintf("%s seed %d morsel %d bits %d workers %d", dist.name, seed, morsel, bits, w)
						ctx := newCtx(w)
						got, err := g.groupedRadix(ctx, in, packed, n, target)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for name, want := range refs {
							if same, where := colstore.TablesIdentical(want, got); !same {
								t.Fatalf("%s: differs from %s: %s", label, name, where)
							}
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
	}
}

// BenchmarkGroupByHighCardinality times groupedRadix alone — keys already
// packed, a count and a float sum per group, the default LLC budget — at
// the sizes and distinct ratios between a dimension-sized group-by and
// Q18/Q21's one-group-per-order.
func BenchmarkGroupByHighCardinality(b *testing.B) {
	g := &GroupBy{
		Keys: []string{"k"},
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Arg: exec.Col{Name: "v"}},
		},
	}
	for _, n := range []int{100_000, 600_000, 1_000_000} {
		for _, ratio := range []float64{0.01, 0.25, 1.0} {
			b.Run(fmt.Sprintf("rows=%d/distinct=%.2f", n, ratio), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				distinct := int(float64(n) * ratio)
				tb := colstore.NewTableBuilder("t", colstore.Schema{
					{Name: "k", Type: colstore.Int64},
					{Name: "v", Type: colstore.Float64},
				})
				perm := rng.Perm(n)
				for i := 0; i < n; i++ {
					tb.Int(0, int64(perm[i]%distinct))
					tb.Float(1, rng.Float64())
					tb.EndRow()
				}
				in := tb.Build()
				packed := in.MustCol("k").(*colstore.Int64s).V
				ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: runtime.GOMAXPROCS(0)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := g.groupedRadix(ctx, in, packed, distinct, DefaultLLCBytes)
					if err != nil {
						b.Fatal(err)
					}
					if out.NumRows() != distinct {
						b.Fatalf("%d groups, want %d", out.NumRows(), distinct)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}
