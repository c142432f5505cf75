package plan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// TestGroupByUnderGroupDeletion is the property the key filter rests on:
// deleting every row of a random subset of keys from a group-by's input
// yields exactly the other groups' output rows, in the same relative
// order, on each grouped path. The aggregates are the ones a filter may
// pass — count, sumi, min and max (over NaNs too), and sum and avg over
// integers, which is the condition KeyFilter.Exact checks.
func TestGroupByUnderGroupDeletion(t *testing.T) {
	const n = 20000
	g := radixTestGroupBy()
	packed := func(ctx *Context, in *colstore.Table) []int64 {
		p, err := packKeysParallel(ctx, in, g.Keys)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	paths := []struct {
		name  string
		keys  func(rng *rand.Rand) []int64
		group func(ctx *Context, in *colstore.Table) (*colstore.Table, error)
	}{
		{"morsel", func(rng *rand.Rand) []int64 { return radixKeyDists[2].keys(rng, n) },
			func(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
				return g.groupedMorsel(ctx, in, packed(ctx, in))
			}},
		{"radix", func(rng *rand.Rand) []int64 { return radixKeyDists[2].keys(rng, n) },
			func(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
				return g.groupedRadix(ctx, in, packed(ctx, in), n, radixTarget(t, n, len(g.Aggs), 4))
			}},
		{"clustered", func(rng *rand.Rand) []int64 { return nonNegative(ascendingRuns(rng, n, 7, 97)) },
			func(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
				key, cuts := g.clusteredCuts(ctx, in)
				if cuts == nil {
					return nil, fmt.Errorf("input is not clustered")
				}
				return g.groupedClustered(ctx, in, key, cuts)
			}},
	}
	for _, path := range paths {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := radixTestTable(rng, path.keys(rng))
			for i, v := range in.MustCol("v").(*colstore.Float64s).V {
				in.MustCol("v").(*colstore.Float64s).V[i] = math.Round(v)
			}
			drop := map[int64]bool{}
			for _, k := range in.MustCol("k").(*colstore.Int64s).V {
				if _, seen := drop[k]; !seen {
					drop[k] = rng.Intn(2) == 0
				}
			}
			kept := func(t *colstore.Table) []int32 {
				var sel []int32
				for i, k := range t.MustCol("k").(*colstore.Int64s).V {
					if !drop[k] {
						sel = append(sel, int32(i))
					}
				}
				return sel
			}
			ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: 4, MinParallelRows: 1, MorselRows: 97}
			all, err := path.group(ctx, in)
			if err != nil {
				t.Fatalf("%s seed %d: %v", path.name, seed, err)
			}
			sel := kept(in)
			if _, ok := exactSums(in, []string{"v"}, sel, ctx.Ctr); !ok {
				t.Fatalf("%s seed %d: the sums are not exact", path.name, seed)
			}
			got, err := path.group(ctx, in.Gather(sel))
			if err != nil {
				t.Fatalf("%s seed %d: %v", path.name, seed, err)
			}
			if same, where := colstore.TablesIdentical(all.Gather(kept(all)), got); !same {
				t.Fatalf("%s seed %d: deleting %d of %d rows changed the kept groups: %s",
					path.name, seed, n-len(sel), n, where)
			}
		}
	}
}

// TestExactSums pins the condition under which a float sum may lose whole
// groups' rows: integers only, and small enough that no partial sum
// rounds.
func TestExactSums(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want bool
	}{
		{[]float64{1, -2, 50, 0}, true},
		{[]float64{1, 2.5}, false},
		{[]float64{math.NaN()}, false},
		{[]float64{math.Inf(1)}, false},
		{[]float64{1 << 52, 1 << 52}, false},
		{[]float64{1 << 52, -(1 << 51)}, true},
	} {
		in := colstore.MustNewTable("t", colstore.Schema{{Name: "v", Type: colstore.Float64}, {Name: "k", Type: colstore.Int64}},
			[]colstore.Column{&colstore.Float64s{V: tc.v}, &colstore.Int64s{V: make([]int64, len(tc.v))}})
		all := make([]int32, len(tc.v))
		for i := range all {
			all[i] = int32(i)
		}
		if _, ok := exactSums(in, []string{"v"}, all, &exec.Counters{}); ok != tc.want {
			t.Errorf("%v: exact = %v, want %v", tc.v, ok, tc.want)
		}
		if _, ok := exactSums(in, []string{"k"}, all, &exec.Counters{}); ok {
			t.Errorf("%v: an int column passed as an exact float sum", tc.v)
		}
	}
}
