package plan

// Property tests for parallel plan execution. Two claims:
//
//  1. Determinism: with a fixed morsel configuration, results are
//     byte-identical at every worker count (floats compared by bit
//     pattern) — morsel decomposition depends only on input size.
//  2. Correctness: the morsel path agrees with the sequential path; for
//     floating-point aggregates only the summation order may differ, so
//     those are compared within a small relative tolerance.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// runCtx runs n at the given worker count and morsel size, returning
// the bytes its morsel merges charged beside its result.
func runCtx(cat Catalog, workers, morsel int, n Node) (*colstore.Table, int64, error) {
	ctx := &Context{Cat: cat, Ctr: &exec.Counters{}, Workers: workers, MorselRows: morsel}
	t, err := n.Execute(ctx)
	return t, ctx.Ctr.MergeBytes, err
}

func compareTables(t *testing.T, label string, want, got *colstore.Table, exactFloats bool) {
	t.Helper()
	if want.NumRows() != got.NumRows() || want.NumCols() != got.NumCols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label,
			got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		wc, gc := want.Col(c), got.Col(c)
		name := want.Schema[c].Name
		switch wcol := wc.(type) {
		case *colstore.Float64s:
			gcol := gc.(*colstore.Float64s)
			for i := range wcol.V {
				w, g := wcol.V[i], gcol.V[i]
				if exactFloats {
					if math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("%s: %s row %d: %v vs %v (bits differ)", label, name, i, g, w)
					}
				} else if math.Abs(w-g) > 1e-9*math.Max(1, math.Abs(w)) {
					t.Fatalf("%s: %s row %d: %v vs %v", label, name, i, g, w)
				}
			}
		case *colstore.Int64s:
			gcol := gc.(*colstore.Int64s)
			for i := range wcol.V {
				if wcol.V[i] != gcol.V[i] {
					t.Fatalf("%s: %s row %d: %d vs %d", label, name, i, gcol.V[i], wcol.V[i])
				}
			}
		case *colstore.Strings:
			gcol := gc.(*colstore.Strings)
			for i := range wcol.Codes {
				if wcol.Value(i) != gcol.Value(i) {
					t.Fatalf("%s: %s row %d: %q vs %q", label, name, i, gcol.Value(i), wcol.Value(i))
				}
			}
		case *colstore.Dates:
			gcol := gc.(*colstore.Dates)
			for i := range wcol.V {
				if wcol.V[i] != gcol.V[i] {
					t.Fatalf("%s: %s row %d differs", label, name, i)
				}
			}
		case *colstore.Bools:
			gcol := gc.(*colstore.Bools)
			for i := range wcol.V {
				if wcol.V[i] != gcol.V[i] {
					t.Fatalf("%s: %s row %d differs", label, name, i)
				}
			}
		default:
			t.Fatalf("%s: unhandled column type %T", label, wc)
		}
	}
}

// parallelTestPlans returns plans exercising every parallel operator:
// selection, join (all kinds), group-by with every aggregate, computed
// projections, and sorting.
func parallelTestPlans() map[string]Node {
	join := func(kind JoinKind) Node {
		return &HashJoin{
			Build:     &Scan{Table: "l"},
			Probe:     &Scan{Table: "r"},
			BuildKeys: []string{"l_key"},
			ProbeKeys: []string{"r_key"},
			Kind:      kind,
			CountAs:   "matches",
		}
	}
	return map[string]Node{
		"filter-sort": &OrderBy{
			Input: &Scan{Table: "r", Pred: exec.CmpI{Column: "r_key", Op: exec.Lt, V: 12}},
			Keys:  []exec.SortKey{{Column: "r_val", Desc: true}, {Column: "r_key"}},
		},
		"inner-join-sort": &OrderBy{
			Input: join(Inner),
			Keys:  []exec.SortKey{{Column: "l_key"}, {Column: "r_val"}, {Column: "l_val"}},
		},
		"semi-join": &OrderBy{Input: join(Semi), Keys: []exec.SortKey{{Column: "r_key"}, {Column: "r_val"}}},
		"anti-join": &OrderBy{Input: join(Anti), Keys: []exec.SortKey{{Column: "r_key"}, {Column: "r_val"}}},
		"left-count": &OrderBy{
			Input: join(LeftCount),
			Keys:  []exec.SortKey{{Column: "r_key"}, {Column: "r_val"}, {Column: "matches"}},
		},
		"group-aggs": &OrderBy{
			Input: &GroupBy{
				Input: &Scan{Table: "r"},
				Keys:  []string{"r_key", "r_tag"},
				Aggs: []AggSpec{
					{Name: "n", Func: Count},
					{Name: "s", Func: Sum, Arg: exec.Col{Name: "r_val"}},
					{Name: "a", Func: Avg, Arg: exec.Col{Name: "r_val"}},
					{Name: "lo", Func: Min, Arg: exec.Col{Name: "r_val"}},
					{Name: "hi", Func: Max, Arg: exec.Col{Name: "r_val"}},
				},
			},
			Keys: []exec.SortKey{{Column: "r_key"}, {Column: "r_tag"}},
		},
		"project-group": &GroupBy{
			Input: &Project{
				Input: &Scan{Table: "r"},
				Cols: []NamedExpr{
					{Name: "k", Expr: exec.Col{Name: "r_key"}},
					{Name: "v2", Expr: exec.Mul(exec.Col{Name: "r_val"}, exec.ConstF{V: 1.5})},
				},
			},
			Keys: []string{"k"},
			Aggs: []AggSpec{{Name: "s", Func: Sum, Arg: exec.Col{Name: "v2"}}},
		},
		"scalar-aggs": &GroupBy{
			Input: &Scan{Table: "r"},
			Aggs: []AggSpec{
				{Name: "n", Func: Count},
				{Name: "s", Func: Sum, Arg: exec.Col{Name: "r_val"}},
				{Name: "lo", Func: Min, Arg: exec.Col{Name: "r_val"}},
			},
		},
	}
}

func TestParallelPlansDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cat := memCatalog{
		"l": randTable(rng, "l", 900, 25),
		"r": randTable(rng, "r", 2400, 25),
	}
	const morsel = 37
	for name, n := range parallelTestPlans() {
		base, _, err := runCtx(cat, 1, morsel, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range []int{2, 4, 8} {
			got, merged, err := runCtx(cat, w, morsel, n)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			// A result of more than one row is concatenated or merged
			// from morsels, which charges MergeBytes.
			if merged == 0 && got.NumRows() > 1 {
				t.Fatalf("%s workers=%d: no morsel merge charged: the plan ran sequentially", name, w)
			}
			compareTables(t, name, base, got, true)
		}
	}
}

func TestParallelPlansMatchSequentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		cat := memCatalog{
			"l": randTable(rng, "l", 200+rng.Intn(1200), 20),
			"r": randTable(rng, "r", 200+rng.Intn(3000), 20),
		}
		for name, n := range parallelTestPlans() {
			seq, _, err := runCtx(cat, 1, 0, n) // one default morsel holds every input
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			par, _, err := runCtx(cat, 8, 41, n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Join/sort/filter outputs are exact; aggregates may differ
			// in float summation order only.
			compareTables(t, name, seq, par, false)
		}
	}
}

// TestStringProjectionEvaluatesOnce: a substring projection longer than
// one morsel evaluates once, whole, whatever the worker count —
// its morsel chunks could not be stitched — so the work it charges does
// not depend on the worker count.
func TestStringProjectionEvaluatesOnce(t *testing.T) {
	const n = 40000
	b := colstore.NewTableBuilder("s", colstore.Schema{{Name: "phone", Type: colstore.String}})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		b.Str(0, fmt.Sprintf("%02d-%03d", rng.Intn(25), rng.Intn(1000)))
		b.EndRow()
	}
	cat := memCatalog{"s": b.Build()}
	p := &Project{Input: &Scan{Table: "s"}, Cols: []NamedExpr{{Name: "cc", Expr: exec.PrefixExpr{Col: "phone", N: 2}}}}
	var want *colstore.Table
	var wantCtr exec.Counters
	for _, w := range []int{1, 2, 8} {
		ctx := &Context{Cat: cat, Ctr: &exec.Counters{}, Workers: w}
		got, err := p.Execute(ctx)
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		if w == 1 {
			want, wantCtr = got, *ctx.Ctr
			continue
		}
		if same, where := colstore.TablesIdentical(want, got); !same {
			t.Fatalf("workers %d: differs: %s", w, where)
		}
		if *ctx.Ctr != wantCtr {
			t.Fatalf("workers %d: charges\n%+v\nworkers 1 charge\n%+v", w, *ctx.Ctr, wantCtr)
		}
	}
}
