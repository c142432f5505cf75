package plan

// Property suite for the fused pipeline compiler: any supported plan
// shape, over adversarial inputs (duplicate-heavy keys, skewed
// distributions, NaN-bearing floats), must produce byte-identical
// results under vector and fused execution at every worker count.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// adversarialTable builds a table whose key column is duplicate-heavy
// and skewed (quadratic bias toward low keys) and whose float column
// carries NaNs, infinities, and sign-flipping magnitudes — the inputs
// most likely to betray a divergence in join, aggregation, or sort
// behavior between the engines.
func adversarialTable(rng *rand.Rand, name string, n, keyRange int) *colstore.Table {
	b := colstore.NewTableBuilder(name, colstore.Schema{
		{Name: name + "_key", Type: colstore.Int64},
		{Name: name + "_val", Type: colstore.Float64},
		{Name: name + "_tag", Type: colstore.String},
	})
	tags := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		// Quadratic skew: low keys are far more frequent.
		u := rng.Float64()
		b.Int(0, int64(u*u*float64(keyRange)))
		switch rng.Intn(12) {
		case 0:
			b.Float(1, math.NaN())
		case 1:
			b.Float(1, math.Inf(1))
		case 2:
			b.Float(1, math.Inf(-1))
		case 3:
			b.Float(1, math.Copysign(0, -1))
		default:
			b.Float(1, (rng.Float64()-0.5)*1e6)
		}
		b.Str(2, tags[rng.Intn(len(tags))])
		b.EndRow()
	}
	return b.Build()
}

// assertModesIdentical runs the plan fused at every worker count and
// requires byte-identical results against the single-worker vector
// baseline.
func assertModesIdentical(t *testing.T, cat Catalog, n Node, label string) {
	t.Helper()
	base, err := RunContext(&Context{Cat: cat, Workers: 1, Exec: ExecVector}, n)
	if err != nil {
		t.Fatalf("%s: vector baseline: %v", label, err)
	}
	for _, w := range []int{1, 2, 4} {
		got, err := RunContext(&Context{Cat: cat, Workers: w, Exec: ExecFused}, n)
		if err != nil {
			t.Fatalf("%s: fused workers=%d: %v", label, w, err)
		}
		if ok, why := colstore.TablesIdentical(base.Table, got.Table); !ok {
			t.Fatalf("%s: fused workers=%d diverges from vector: %s", label, w, why)
		}
	}
}

func TestFusedFilterProjectGroupProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		// Longer than one default morsel, so it runs in morsels.
		tbl := adversarialTable(rng, "t", 30000+rng.Intn(50000), 40)
		cat := memCatalog{"t": tbl}
		node := &GroupBy{
			Input: &Project{
				Input: &Filter{
					Input: &Scan{Table: "t"},
					Pred:  exec.CmpI{Column: "t_key", Op: exec.Le, V: int64(rng.Intn(30) + 5)},
				},
				Cols: []NamedExpr{
					{Name: "t_key", Expr: exec.Col{Name: "t_key"}},
					{Name: "t_tag", Expr: exec.Col{Name: "t_tag"}},
					{Name: "scaled", Expr: exec.Arith{Op: exec.MulOp, L: exec.Col{Name: "t_val"}, R: exec.ConstF{V: 1.5}}},
				},
			},
			Keys: []string{"t_key", "t_tag"},
			Aggs: []AggSpec{
				{Name: "s", Func: Sum, Arg: exec.Col{Name: "scaled"}},
				{Name: "n", Func: Count},
				{Name: "mn", Func: Min, Arg: exec.Col{Name: "scaled"}},
				{Name: "mx", Func: Max, Arg: exec.Col{Name: "scaled"}},
			},
		}
		assertModesIdentical(t, cat, node, fmt.Sprintf("trial %d filter→project→group", trial))
	}
}

func TestFusedOrderByNaNProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 6; trial++ {
		tbl := adversarialTable(rng, "t", 2000+rng.Intn(60000), 25)
		cat := memCatalog{"t": tbl}
		node := &OrderBy{
			Input: &Filter{
				Input: &Scan{Table: "t"},
				Pred:  exec.CmpI{Column: "t_key", Op: exec.Ge, V: 2},
			},
			Keys: []exec.SortKey{{Column: "t_val", Desc: trial%2 == 0}, {Column: "t_key"}},
		}
		assertModesIdentical(t, cat, node, fmt.Sprintf("trial %d filter→sort (NaN-bearing)", trial))
	}
}

func TestFusedJoinKindsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 6; trial++ {
		build := adversarialTable(rng, "b", 200+rng.Intn(2000), 30)
		probe := adversarialTable(rng, "p", 30000+rng.Intn(40000), 30)
		cat := memCatalog{"b": build, "p": probe}
		for _, kind := range []JoinKind{Inner, Semi, Anti, LeftCount} {
			join := &HashJoin{
				Build:     &Scan{Table: "b"},
				Probe:     &Filter{Input: &Scan{Table: "p"}, Pred: exec.CmpI{Column: "p_key", Op: exec.Le, V: 25}},
				BuildKeys: []string{"b_key"},
				ProbeKeys: []string{"p_key"},
				Kind:      kind,
				CountAs:   "matches",
			}
			var node Node
			switch kind {
			case Inner:
				node = &GroupBy{
					Input: join,
					Keys:  []string{"b_tag"},
					Aggs: []AggSpec{
						{Name: "s", Func: Sum, Arg: exec.Arith{Op: exec.AddOp, L: exec.Col{Name: "p_val"}, R: exec.Col{Name: "b_val"}}},
						{Name: "n", Func: Count},
					},
				}
			case LeftCount:
				node = &GroupBy{
					Input: join,
					Keys:  []string{"p_tag"},
					Aggs: []AggSpec{
						{Name: "total", Func: Sum, Arg: exec.Col{Name: "matches"}},
						{Name: "n", Func: Count},
					},
				}
			default:
				node = &GroupBy{
					Input: join,
					Keys:  []string{"p_key"},
					Aggs: []AggSpec{
						{Name: "s", Func: Sum, Arg: exec.Col{Name: "p_val"}},
						{Name: "n", Func: Count},
					},
				}
			}
			assertModesIdentical(t, cat, node, fmt.Sprintf("trial %d %v-join→group", trial, kind))
		}
	}
}

func TestFusedChainedJoinsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 4; trial++ {
		dimA := adversarialTable(rng, "a", 100+rng.Intn(1000), 20)
		dimB := adversarialTable(rng, "c", 100+rng.Intn(1000), 20)
		fact := adversarialTable(rng, "f", 30000+rng.Intn(30000), 20)
		cat := memCatalog{"a": dimA, "c": dimB, "f": fact}
		node := &GroupBy{
			Input: &HashJoin{
				Build: &Scan{Table: "c"},
				Probe: &HashJoin{
					Build:     &Scan{Table: "a"},
					Probe:     &Filter{Input: &Scan{Table: "f"}, Pred: exec.CmpI{Column: "f_key", Op: exec.Le, V: 15}},
					BuildKeys: []string{"a_key"},
					ProbeKeys: []string{"f_key"},
					Kind:      Semi,
				},
				BuildKeys: []string{"c_key"},
				ProbeKeys: []string{"f_key"},
				Kind:      Inner,
			},
			Keys: []string{"c_tag"},
			Aggs: []AggSpec{
				{Name: "s", Func: Sum, Arg: exec.Col{Name: "f_val"}},
				{Name: "n", Func: Count},
			},
		}
		assertModesIdentical(t, cat, node, fmt.Sprintf("trial %d semi→inner→group", trial))
	}
}

// TestCompileLeavesVectorPlansAlone pins the default: without an exec
// mode the compiler must return the identical plan value.
func TestCompileLeavesVectorPlansAlone(t *testing.T) {
	node := &GroupBy{Input: &Scan{Table: "t"}, Aggs: []AggSpec{{Name: "n", Func: Count}}}
	for _, mode := range []ExecMode{"", ExecVector} {
		if got := Compile(&Context{Exec: mode}, node); got != Node(node) {
			t.Errorf("mode %q: Compile should return the input plan unchanged", mode)
		}
	}
}

// TestParseExecMode pins the flag surface.
func TestParseExecMode(t *testing.T) {
	for s, want := range map[string]ExecMode{"": ExecVector, "vector": ExecVector, "fused": ExecFused} {
		got, err := ParseExecMode(s)
		if err != nil || got != want {
			t.Errorf("ParseExecMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"bogus", "auto"} {
		if _, err := ParseExecMode(s); err == nil || !strings.Contains(err.Error(), "want vector or fused") {
			t.Errorf("ParseExecMode(%q) error = %v; want a rejection naming vector and fused", s, err)
		}
	}
}
