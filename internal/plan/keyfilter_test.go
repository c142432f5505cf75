package plan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// TestGroupByUnderGroupDeletion is the property the key filter rests on:
// deleting every row of a random subset of keys from a group-by's input
// yields exactly the other groups' output rows, in the same relative
// order, on each grouped path. The aggregates are the ones a filter may
// pass — count, sumi, min and max (over NaNs too), and sum and avg over
// integers, which is the condition KeyFilter.Exact checks.
func TestGroupByUnderGroupDeletion(t *testing.T) {
	const n = 20000
	g := groupTestGroupBy()
	paths := []struct {
		name  string
		keys  func(rng *rand.Rand) []int64
		group func(ctx *Context, in *colstore.Table) (*colstore.Table, error)
	}{
		{"morsel", func(rng *rand.Rand) []int64 { return groupKeyDists[2].keys(rng, n) },
			func(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
				return g.groupedMorsel(ctx, in, in, mustGroupKeys(t, g, in))
			}},
		{"clustered", func(rng *rand.Rand) []int64 { return nonNegative(ascendingRuns(rng, n, 7, 97)) },
			func(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
				key, cuts := g.clusteredCuts(ctx, in)
				if cuts == nil {
					return nil, fmt.Errorf("input is not clustered")
				}
				return g.groupedClustered(ctx, in, in, mustGroupKeys(t, g, in), key, cuts)
			}},
	}
	for _, path := range paths {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := groupTestTable(rng, path.keys(rng))
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
			ctx := &Context{Cat: memCatalog{"t": in}, Ctr: &exec.Counters{}, Workers: 4, MorselRows: 97}
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

// TestKeyFilterReadsThroughViews: a key filter over a Filter reads its
// keys and its exact-sum column through the filter's views. It must
// still run, and the join above it must charge and return exactly what
// the eager path does.
func TestKeyFilterReadsThroughViews(t *testing.T) {
	const n = 4000
	k, v := make([]int64, n), make([]float64, n)
	for i := range k {
		k[i], v[i] = int64(i%100), float64(i%7)
	}
	cat := memCatalog{
		"t": colstore.MustNewTable("t", colstore.Schema{{Name: "k", Type: colstore.Int64}, {Name: "v", Type: colstore.Float64}},
			[]colstore.Column{&colstore.Int64s{V: k}, &colstore.Float64s{V: v}}),
		"p": colstore.MustNewTable("p", colstore.Schema{{Name: "pk", Type: colstore.Int64}},
			[]colstore.Column{&colstore.Int64s{V: []int64{3, 5, 7, 11, 60, 80}}}),
	}
	ks := &KeySet{From: []string{"pk"}}
	join := &HashJoin{
		Build: &KeyFilter{
			Input: &Filter{Input: &Scan{Table: "t"}, Pred: exec.CmpI{Column: "k", Op: exec.Lt, V: 50}},
			Keys:  []string{"k"}, Exact: []string{"v"}, Set: ks,
		},
		Probe: &Scan{Table: "p"}, BuildKeys: []string{"k"}, ProbeKeys: []string{"pk"}, Sideways: ks,
	}
	run := func(lazy bool) (*Result, string) {
		lazyOff = !lazy
		defer func() { lazyOff = false }()
		res, err := RunContext(&Context{Cat: cat, Workers: 2, MorselRows: 256, Trace: &obs.Tracer{}}, join)
		if err != nil {
			t.Fatal(err)
		}
		var label string
		res.Root.Walk(func(sp *obs.Span, _ int) {
			if sp.Op == "keyfilter" {
				label = sp.Label
			}
		})
		return res, label
	}
	eager, eagerLabel := run(false)
	lazy, lazyLabel := run(true)
	if want := "keyfilter [k] 2000 → 160, positional, 78 slots"; lazyLabel != want || eagerLabel != want {
		t.Fatalf("keyfilter spans %q (lazy) and %q (eager), want %q", lazyLabel, eagerLabel, want)
	}
	if same, where := colstore.TablesIdentical(eager.Table, lazy.Table); !same {
		t.Fatalf("lazy result differs: %s", where)
	}
	if lazy.Counters != eager.Counters {
		t.Fatalf("lazy counters\n%+v\neager counters\n%+v", lazy.Counters, eager.Counters)
	}
}
