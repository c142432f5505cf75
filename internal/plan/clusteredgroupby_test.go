package plan

// Property test and micro-benchmark for the order-aware group-by. The
// claim under test is the one groupedClustered makes: on every input
// clusteredCuts accepts — whatever the key position, encoding, morsel
// size and worker count — aggregate returns the table groupedMorsel and
// groupedRadix return, bit for bit, with counters that do not depend on
// the worker count; and every input it must refuse still takes the old
// paths.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// ascendingRuns returns n keys in runs of 1..maxRun equal values, each
// run's value above the last. With straddle > 0 no run boundary falls on
// a multiple of straddle: every morsel boundary cuts a run in two.
func ascendingRuns(rng *rand.Rand, n, maxRun, straddle int) []int64 {
	keys := make([]int64, 0, n)
	v := int64(-40) // single keys may be negative
	for len(keys) < n {
		run := 1 + rng.Intn(maxRun)
		if end := len(keys) + run; straddle > 0 && end%straddle == 0 {
			run++
		}
		v += 1 + int64(rng.Intn(3))
		for ; run > 0 && len(keys) < n; run-- {
			keys = append(keys, v)
		}
	}
	return keys
}

// clusteredShapes are the inputs of the property test: the group keys,
// the k and t columns, and whether the order-aware path must take them.
var clusteredShapes = []struct {
	name      string
	keys      []string
	gen       func(rng *rand.Rand, n, morsel int) (k, t []int64)
	clustered bool
}{
	{"sorted single key", []string{"k"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		return ascendingRuns(rng, n, 7, 0), randomInts(rng, n, 5)
	}, true},
	{"clustered leading key, random trailing key", []string{"k", "t"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		return nonNegative(ascendingRuns(rng, n, 7, 0)), randomInts(rng, n, 5)
	}, true},
	{"clustered key in 2nd position", []string{"t", "k"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		return nonNegative(ascendingRuns(rng, n, 7, 0)), randomInts(rng, n, 5)
	}, true},
	{"both keys ascending within runs", []string{"k", "t"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		k := nonNegative(ascendingRuns(rng, n, 7, 0))
		t := make([]int64, n) // like l_linenumber: the row's position in its run, halved
		for i := 1; i < n; i++ {
			if k[i] == k[i-1] {
				t[i] = t[i-1] + int64(i&1)
			}
		}
		return k, t
	}, true},
	{"one giant run", []string{"k"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		k := ascendingRuns(rng, n, 7, 0)
		for i := 0; i < n*3/5; i++ {
			k[i] = k[0]
		}
		return k, randomInts(rng, n, 5)
	}, false},
	{"sorted, then one descent at the last row", []string{"k"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		k := ascendingRuns(rng, n, 7, 0)
		k[n-1] = k[0]
		return k, randomInts(rng, n, 5)
	}, false},
	{"all distinct", []string{"k"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		return ascendingRuns(rng, n, 1, 0), randomInts(rng, n, 5)
	}, true},
	{"runs straddling every morsel boundary", []string{"k", "t"}, func(rng *rand.Rand, n, morsel int) ([]int64, []int64) {
		return nonNegative(ascendingRuns(rng, n, 7, morsel)), randomInts(rng, n, 2)
	}, true},
	{"unsorted", []string{"k", "t"}, func(rng *rand.Rand, n, _ int) ([]int64, []int64) {
		return randomInts(rng, n, int64(n/3)), randomInts(rng, n, 5)
	}, false},
}

func randomInts(rng *rand.Rand, n int, below int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(below)
	}
	return out
}

// nonNegative shifts keys so they can be packed beside another key.
func nonNegative(keys []int64) []int64 {
	for i := range keys {
		keys[i] += 40
	}
	return keys
}

// keyEncodings are the int encodings the k column is tested under; each
// reports false when the values do not fit it.
var keyEncodings = []struct {
	name   string
	encode func(c *colstore.Int64s) (colstore.Column, bool)
}{
	{"plain", func(c *colstore.Int64s) (colstore.Column, bool) { return c, true }},
	{"rle", func(c *colstore.Int64s) (colstore.Column, bool) { return colstore.CompressInt64(c), true }},
	{"bit-packed", func(c *colstore.Int64s) (colstore.Column, bool) { return colstore.BitPackInt64(c) }},
	{"for", func(c *colstore.Int64s) (colstore.Column, bool) { return colstore.FoRCompressInt64(c) }},
}

// clusteredTestTable is radixTestTable's value columns beside the two
// key columns k and t.
func clusteredTestTable(t *testing.T, rng *rand.Rand, k colstore.Column, tv []int64) *colstore.Table {
	t.Helper()
	vals := radixTestTable(rng, tv)
	in, err := colstore.NewTable("t",
		colstore.Schema{{Name: "k", Type: colstore.Int64}, {Name: "t", Type: colstore.Int64},
			{Name: "v", Type: colstore.Float64}, {Name: "nanv", Type: colstore.Float64}, {Name: "iv", Type: colstore.Int64}},
		[]colstore.Column{k, &colstore.Int64s{V: tv}, vals.MustCol("v"), vals.MustCol("nanv"), vals.MustCol("iv")})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestClusteredGroupByProperty(t *testing.T) {
	const n = 20000
	for _, shape := range clusteredShapes {
		g := radixTestGroupBy()
		g.Keys = shape.keys
		for _, morsel := range []int{64, 1000, 0} {
			rng := rand.New(rand.NewSource(int64(morsel) + 1))
			kv, tv := shape.gen(rng, n, morsel)
			for _, enc := range keyEncodings {
				k, ok := enc.encode(&colstore.Int64s{V: kv})
				if !ok {
					continue // negative keys do not bit-pack
				}
				in := clusteredTestTable(t, rng, k, tv)
				newCtx := func(workers int) *Context {
					return &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: workers, MinParallelRows: 1, MorselRows: morsel}
				}
				ctx := newCtx(1)
				packed, err := packKeysParallel(ctx, in, g.Keys)
				if err != nil {
					t.Fatal(err)
				}
				byMorsel, err := g.groupedMorsel(ctx, in, packed)
				if err != nil {
					t.Fatal(err)
				}
				byRadix, err := g.groupedRadix(ctx, in, packed, n, radixTarget(t, n, len(g.Aggs), 4))
				if err != nil {
					t.Fatal(err)
				}
				var base exec.Counters
				for _, w := range []int{1, 2, 4, 8} {
					label := fmt.Sprintf("%s, morsel %d, %s, workers %d", shape.name, morsel, enc.name, w)
					ctx := newCtx(w)
					if _, cuts := g.clusteredCuts(ctx, in); (cuts != nil) != shape.clustered {
						t.Fatalf("%s: clustered path taken = %v, want %v", label, cuts != nil, shape.clustered)
					}
					*ctx.Ctr = exec.Counters{}
					got, err := g.aggregate(ctx, in)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if same, where := colstore.TablesIdentical(byMorsel, got); !same {
						t.Fatalf("%s: differs from groupedMorsel: %s", label, where)
					}
					if same, where := colstore.TablesIdentical(byRadix, got); !same {
						t.Fatalf("%s: differs from groupedRadix: %s", label, where)
					}
					if shape.clustered && (ctx.Ctr.PartitionBytes != 0 || ctx.Ctr.RandomAccesses != int64(got.NumRows()*len(g.Keys))) {
						t.Fatalf("%s: clustered path scattered or probed outside the cache: %+v", label, *ctx.Ctr)
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

	// Empty input: aggregate never offers it to the order-aware path (it is
	// below every parallel threshold), and the path itself makes no rows
	// of the one empty chunk the cutter returns.
	g := radixTestGroupBy()
	g.Keys = []string{"k", "t"}
	in := clusteredTestTable(t, rand.New(rand.NewSource(1)), &colstore.Int64s{}, nil)
	ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: 4, MinParallelRows: 1}
	for _, run := range []func() (*colstore.Table, error){
		func() (*colstore.Table, error) { return g.aggregate(ctx, in) },
		func() (*colstore.Table, error) {
			return g.groupedClustered(ctx, in, "k", exec.ClusteredCuts(in.MustCol("k"), 16, ctx.Ctr))
		},
	} {
		if got, err := run(); err != nil || got.NumRows() != 0 || got.NumCols() != len(g.Keys)+len(g.Aggs) {
			t.Fatalf("empty input: %v, %v", got, err)
		}
	}
}

// BenchmarkGroupByClustered times aggregate end to end — detection, key
// extraction, fold, output — on Q18- and Q21-shaped inputs, down the
// order-aware path and, with it switched off, down the radix path the
// same input took before.
func BenchmarkGroupByClustered(b *testing.B) {
	const n = 600_000
	rng := rand.New(rand.NewSource(1))
	orderkey := nonNegative(ascendingRuns(rng, n, 7, 0))
	tb := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "orderkey", Type: colstore.Int64},
		{Name: "suppkey", Type: colstore.Int64},
		{Name: "v", Type: colstore.Float64},
	})
	for _, k := range orderkey {
		tb.Int(0, k)
		tb.Int(1, rng.Int63n(1000))
		tb.Float(2, rng.Float64())
		tb.EndRow()
	}
	in := tb.Build()
	aggs := []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Arg: exec.Col{Name: "v"}}}
	for _, keys := range [][]string{{"orderkey"}, {"orderkey", "suppkey"}} {
		g := &GroupBy{Keys: keys, Aggs: aggs}
		for _, path := range []string{"clustered", "radix"} {
			b.Run(fmt.Sprintf("keys=%d/%s", len(keys), path), func(b *testing.B) {
				clusteredOff = path == "radix"
				defer func() { clusteredOff = false }()
				ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: runtime.GOMAXPROCS(0)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := g.aggregate(ctx, in); err != nil {
						b.Fatal(err)
					}
				}
				if (ctx.Ctr.PartitionBytes == 0) != (path == "clustered") {
					b.Fatalf("took the wrong path: %d partition bytes", ctx.Ctr.PartitionBytes)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}
