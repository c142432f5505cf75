package plan

// Property tests for the unclustered group-by. The claim under test is the
// one groupedMorsel makes: whatever the key shape and distribution, morsel
// size and worker count, it returns the same table — at one morsel, the
// table the sequential Grouper path returns — bit for bit, while charging
// counters that do not depend on the worker count.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// groupKeyCases are the group keys of the property test, over the
// columns groupPropertyTable adds, with whether their packed key space
// is small enough for group IDs by direct index.
var groupKeyCases = []struct {
	name   string
	keys   []string
	direct bool
}{
	{"two keys, 11 bits", []string{"x9", "tag"}, true},
	{"two keys, 12 bits", []string{"x10", "tag"}, true},
	{"two keys, 13 bits", []string{"x11", "tag"}, false},
	{"one string", []string{"s2"}, true},
	{"two strings", []string{"tag", "s2"}, true},
	{"date", []string{"d"}, false},
	{"date and bool", []string{"b", "d"}, false},
	{"bool", []string{"b"}, true},
	{"negative int", []string{"neg"}, false},
	{"small int", []string{"x10"}, true},
}

// groupPropertyTable is groupTestTable's columns plus the key columns of
// groupKeyCases — x9, x10 and x11 take their widths' largest value at
// least once — and sp, floats with NaN, ±Inf and −0 among them.
func groupPropertyTable(rng *rand.Rand, n int) *colstore.Table {
	base := groupTestTable(rng, groupKeyDists[2].keys(rng, n))
	xs := map[string]uint{"x9": 9, "x10": 10, "x11": 11}
	b := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "x9", Type: colstore.Int64},
		{Name: "x10", Type: colstore.Int64},
		{Name: "x11", Type: colstore.Int64},
		{Name: "s2", Type: colstore.String},
		{Name: "d", Type: colstore.Date},
		{Name: "b", Type: colstore.Bool},
		{Name: "neg", Type: colstore.Int64},
		{Name: "sp", Type: colstore.Float64},
	})
	strs := []string{"p", "q", "r", "s", "t"}
	// The NaN is the one Inf − Inf makes, so every NaN a sum can end in
	// has the same bits whichever operand the hardware propagates.
	specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	specials = append(specials, specials[0]+specials[1])
	for i := 0; i < n; i++ {
		for c, name := range []string{"x9", "x10", "x11"} {
			top := int64(1)<<xs[name] - 1
			if i != c {
				top = rng.Int63n(top + 1)
			}
			b.Int(c, top)
		}
		b.Str(3, strs[rng.Intn(len(strs))])
		b.Date(4, int32(8000+rng.Intn(40)))
		b.Bool(5, rng.Intn(3) == 0)
		b.Int(6, rng.Int63n(100)-50)
		if rng.Intn(3) == 0 {
			b.Float(7, specials[rng.Intn(len(specials))])
		} else {
			b.Float(7, rng.NormFloat64())
		}
		b.EndRow()
	}
	extra := b.Build()
	schema := append(slices.Clone(base.Schema), extra.Schema...)
	return colstore.MustNewTable("t", schema, append(slices.Clone(base.Cols), extra.Cols...))
}

// groupPropertyAggs are every aggregate function, with two Counts and two
// Avgs sharing one count and four sums (Avgs included) in one scatter.
var groupPropertyAggs = []AggSpec{
	{Name: "n", Func: Count},
	{Name: "s", Func: Sum, Arg: exec.Col{Name: "v"}},
	{Name: "a", Func: Avg, Arg: exec.Col{Name: "v"}},
	{Name: "lo", Func: Min, Arg: exec.Col{Name: "sp"}},
	{Name: "hi", Func: Max, Arg: exec.Col{Name: "sp"}},
	{Name: "si", Func: SumI, Arg: exec.Col{Name: "iv"}},
	{Name: "ssp", Func: Sum, Arg: exec.Col{Name: "sp"}},
	{Name: "asp", Func: Avg, Arg: exec.Col{Name: "sp"}},
	{Name: "n2", Func: Count},
	{Name: "lo2", Func: Min, Arg: exec.Col{Name: "v"}},
}

// referenceGroupBy is the grouped aggregation the engine promises, written
// plainly: groups in order of first occurrence; each float sum folds its
// rows left to right within each morsel of morselRows rows, and the
// per-morsel partials in morsel order; Min and Max skip NaN and keep the
// first of equal values.
func referenceGroupBy(t *testing.T, g *GroupBy, in *colstore.Table, morselRows int) *colstore.Table {
	t.Helper()
	n := in.NumRows()
	keyVecs := make([][]int64, len(g.Keys))
	for i, k := range g.Keys {
		v, err := exec.KeysFromColumn(in.MustCol(k), nil, &exec.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		keyVecs[i] = v
	}
	gid := map[string]int{}
	var firstRow []int32
	gids := make([]int, n)
	for r := 0; r < n; r++ {
		key := make([]int64, len(keyVecs))
		for i, v := range keyVecs {
			key[i] = v[r]
		}
		ks := fmt.Sprint(key)
		id, ok := gid[ks]
		if !ok {
			id = len(firstRow)
			gid[ks] = id
			firstRow = append(firstRow, int32(r))
		}
		gids[r] = id
	}
	ng := len(firstRow)
	schema := colstore.Schema{}
	var cols []colstore.Column
	for _, k := range g.Keys {
		c := in.MustCol(k)
		schema = append(schema, colstore.Field{Name: k, Type: c.Type()})
		cols = append(cols, c.Gather(firstRow))
	}
	counts := make([]int64, ng)
	for _, id := range gids {
		counts[id]++
	}
	for _, spec := range g.Aggs {
		var col colstore.Column
		switch spec.Func {
		case Count:
			col = &colstore.Int64s{V: slices.Clone(counts)}
		case SumI:
			iv := in.MustCol(spec.Arg.(exec.Col).Name).(*colstore.Int64s).V
			out := make([]int64, ng)
			for r, id := range gids {
				out[id] += iv[r]
			}
			col = &colstore.Int64s{V: out}
		case Sum, Avg:
			fv := in.MustCol(spec.Arg.(exec.Col).Name).(*colstore.Float64s).V
			out := make([]float64, ng)
			for lo := 0; lo < n; lo += morselRows {
				part := make([]float64, ng)
				seen := make([]bool, ng)
				for r := lo; r < min(n, lo+morselRows); r++ {
					part[gids[r]] += fv[r]
					seen[gids[r]] = true
				}
				for id := range out {
					if seen[id] {
						out[id] += part[id]
					}
				}
			}
			if spec.Func == Avg {
				for id := range out {
					out[id] /= float64(counts[id])
				}
			}
			col = &colstore.Float64s{V: out}
		case Min, Max:
			fv := in.MustCol(spec.Arg.(exec.Col).Name).(*colstore.Float64s).V
			out := make([]float64, ng)
			for id := range out {
				out[id] = math.Inf(1)
				if spec.Func == Max {
					out[id] = math.Inf(-1)
				}
			}
			for r, id := range gids {
				if spec.Func == Min && fv[r] < out[id] || spec.Func == Max && fv[r] > out[id] {
					out[id] = fv[r]
				}
			}
			col = &colstore.Float64s{V: out}
		}
		schema = append(schema, colstore.Field{Name: spec.Name, Type: col.Type()})
		cols = append(cols, col)
	}
	return colstore.MustNewTable("", schema, cols)
}

// TestGroupByProperty: on every key shape — packed widths on both sides
// of the direct table, strings, dates, bools, negative and own int keys,
// over a whole table and a selection of it — the sequential and the
// morsel path return the reference table bit for bit at every morsel
// size and worker count, and charge counters that do not depend on the
// worker count.
func TestGroupByProperty(t *testing.T) {
	const n = 3000
	for _, kc := range groupKeyCases {
		g := &GroupBy{Keys: kc.keys, Aggs: groupPropertyAggs}
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			whole := groupPropertyTable(rng, n)
			var sel []int32
			for r := 0; r < n; r++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(r))
				}
			}
			for _, in := range []*colstore.Table{whole, whole.Gather(sel)} {
				keys := mustGroupKeys(t, g, in)
				sizeCtx := &Context{Ctr: &exec.Counters{}, Workers: 2, MorselRows: 97}
				if err := keys.sizeParallel(sizeCtx, in.NumRows()); err != nil {
					t.Fatalf("%s: sizing the key: %v", kc.name, err)
				}
				if (keys.span > 0) != kc.direct {
					t.Fatalf("%s: direct group ids = %v, want %v", kc.name, keys.span > 0, kc.direct)
				}
				cat := memCatalog{"t": in}
				// 97: many morsel cuts inside every float sum; 1000: a
				// ragged last morsel; 0: the default morsel, longer than
				// the input, which takes the sequential path.
				for _, morsel := range []int{97, 1000, 0} {
					want := referenceGroupBy(t, g, in, cmp.Or(morsel, exec.DefaultMorselRows))
					var base exec.Counters
					for _, w := range []int{1, 2, 8} {
						label := fmt.Sprintf("%s seed %d rows %d morsel %d workers %d", kc.name, seed, in.NumRows(), morsel, w)
						ctx := &Context{Cat: cat, Ctr: &exec.Counters{}, Workers: w, MorselRows: morsel}
						got, err := g.aggregate(ctx, in)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if same, where := colstore.TablesIdentical(want, got); !same {
							t.Fatalf("%s: differs from the reference: %s", label, where)
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

	// Keys wider than 63 bits together fail on every path.
	wide := groupPropertyTable(rand.New(rand.NewSource(1)), 200)
	big := &colstore.Int64s{V: make([]int64, 200)}
	big.V[7] = 1 << 40
	wide, err := colstore.NewTable("t", append(slices.Clone(wide.Schema), colstore.Field{Name: "big", Type: colstore.Int64}),
		append(slices.Clone(wide.Cols), big))
	if err != nil {
		t.Fatal(err)
	}
	g := &GroupBy{Keys: []string{"big", "x11", "d"}, Aggs: groupPropertyAggs}
	for _, morsel := range []int{64, 1000} {
		ctx := &Context{Cat: memCatalog{"t": wide}, Ctr: &exec.Counters{}, Workers: 2, MorselRows: morsel}
		if _, err := g.aggregate(ctx, wide); err == nil || !strings.Contains(err.Error(), "max 63") {
			t.Fatalf("morsel %d: 41+11+13 key bits: err = %v, want the 63-bit limit", morsel, err)
		}
	}

	// An all-distinct, unclustered input of several morsels still
	// aggregates in morsels: nothing is partitioned.
	rng := rand.New(rand.NewSource(1))
	in := groupTestTable(rng, groupKeyDists[0].keys(rng, 20000))
	ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: 2, MorselRows: 1 << 12}
	got, err := groupTestGroupBy().aggregate(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 20000 || ctx.Ctr.PartitionBytes != 0 {
		t.Fatalf("all-distinct: %d groups, %d partition bytes; want 20000, 0", got.NumRows(), ctx.Ctr.PartitionBytes)
	}
}

// TestGroupByKeyDists: whatever the distribution of an int key and its
// string tag, the morsel path returns the table the sequential path
// returns when one morsel holds every row, and the same table and
// counters at every worker count when morsels cut the rows.
func TestGroupByKeyDists(t *testing.T) {
	const n = 3000
	g := groupTestGroupBy()
	for _, dist := range groupKeyDists {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := groupTestTable(rng, dist.keys(rng, n))
			for _, morsel := range []int{97, n} {
				newCtx := func(workers, morsel int) *Context {
					return &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: workers, MorselRows: morsel}
				}
				var want *colstore.Table
				if morsel == n {
					var err error
					if want, err = g.aggregate(newCtx(1, n+1), in); err != nil { // sequential
						t.Fatal(err)
					}
				}
				var base exec.Counters
				for _, w := range []int{1, 2, 4, 8} {
					label := fmt.Sprintf("%s seed %d morsel %d workers %d", dist.name, seed, morsel, w)
					ctx := newCtx(w, morsel)
					got, err := g.groupedMorsel(ctx, in, in, mustGroupKeys(t, g, in))
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
}

// mustGroupKeys is g's key columns in in, as aggregate finds them.
func mustGroupKeys(t testing.TB, g *GroupBy, in *colstore.Table) *groupKeys {
	t.Helper()
	keys, err := g.groupKeys(in)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// BenchmarkGroupBy times aggregate end to end — key sizing and packing,
// group IDs, argument evaluation, folds, merge and output — on 600 000
// rows at one and two workers, reporting ns/row:
//
//   - q1: TPC-H Q1's shape, two dictionary keys (3 × 2 values, so group
//     IDs by direct index) with its four sums, three averages and count;
//   - direct: one int key of 1 000 values, also by direct index;
//   - hashed: one int key of 100 000 values, past the direct table;
//   - clustered: Q18's sum over l_orderkey, whose runs arrive ascending.
func BenchmarkGroupBy(b *testing.B) {
	const n = 600_000
	rng := rand.New(rand.NewSource(1))
	tb := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "flag", Type: colstore.String},
		{Name: "status", Type: colstore.String},
		{Name: "qty", Type: colstore.Float64},
		{Name: "price", Type: colstore.Float64},
		{Name: "disc", Type: colstore.Float64},
		{Name: "tax", Type: colstore.Float64},
		{Name: "small", Type: colstore.Int64},
		{Name: "wide", Type: colstore.Int64},
		{Name: "orderkey", Type: colstore.Int64},
	})
	orderkey := ascendingRuns(rng, n, 7, 0)
	for i := 0; i < n; i++ {
		tb.Str(0, []string{"A", "N", "R"}[rng.Intn(3)])
		tb.Str(1, []string{"F", "O"}[rng.Intn(2)])
		tb.Float(2, float64(1+rng.Intn(50)))
		tb.Float(3, 900+rng.Float64()*1e5)
		tb.Float(4, float64(rng.Intn(11))/100)
		tb.Float(5, float64(rng.Intn(9))/100)
		tb.Int(6, rng.Int63n(1000))
		tb.Int(7, rng.Int63n(100_000))
		tb.Int(8, orderkey[i])
		tb.EndRow()
	}
	in := tb.Build()
	col := func(name string) exec.Expr { return exec.Col{Name: name} }
	discPrice := exec.Mul(col("price"), exec.Sub(exec.ConstF{V: 1}, col("disc")))
	sumCount := []AggSpec{{Name: "s", Func: Sum, Arg: col("price")}, {Name: "n", Func: Count}}
	shapes := []struct {
		name string
		g    *GroupBy
	}{
		{"q1", &GroupBy{Keys: []string{"flag", "status"}, Aggs: []AggSpec{
			{Name: "sum_qty", Func: Sum, Arg: col("qty")},
			{Name: "sum_base_price", Func: Sum, Arg: col("price")},
			{Name: "sum_disc_price", Func: Sum, Arg: discPrice},
			{Name: "sum_charge", Func: Sum, Arg: exec.Mul(discPrice, exec.Add(exec.ConstF{V: 1}, col("tax")))},
			{Name: "avg_qty", Func: Avg, Arg: col("qty")},
			{Name: "avg_price", Func: Avg, Arg: col("price")},
			{Name: "avg_disc", Func: Avg, Arg: col("disc")},
			{Name: "count_order", Func: Count},
		}}},
		{"direct", &GroupBy{Keys: []string{"small"}, Aggs: sumCount}},
		{"hashed", &GroupBy{Keys: []string{"wide"}, Aggs: sumCount}},
		{"clustered", &GroupBy{Keys: []string{"orderkey"}, Aggs: []AggSpec{{Name: "sum_qty", Func: Sum, Arg: col("qty")}}}},
	}
	for _, shape := range shapes {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W=%d", shape.name, w), func(b *testing.B) {
				ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: w}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := shape.g.aggregate(ctx, in); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}
