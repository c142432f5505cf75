package plan_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// TestLazyGathersMatchEager runs all 22 queries with lazy gathers and,
// through the in-test switch, with every gather copying at once: at 1, 2
// and 8 workers, unbudgeted and under a 64 KiB budget with a spill
// directory. A lazy gather only defers the copy it charges, so the
// tables must be byte-identical and the counters and span trees (wall
// clocks left out) identical. It lives here because the switch is
// unexported.
func TestLazyGathersMatchEager(t *testing.T) {
	data := tpch.Generate(tpch.Config{SF: 0.01, Seed: 42})
	for _, budget := range []int64{0, 64 << 10} {
		for _, w := range []int{1, 2, 8} {
			db := engine.NewDB(engine.Config{Workers: w, MemBudgetBytes: budget, SpillDir: t.TempDir()})
			data.RegisterAll(db)
			for _, q := range tpch.QueryNumbers() {
				t.Run(fmt.Sprintf("budget=%d/W=%d/Q%d", budget, w, q), func(t *testing.T) {
					pl, err := sql.Plan(db, tpch.MustSQL(q), sql.Options{UniqueKeys: tpch.TableKeys()})
					if err != nil {
						t.Fatal(err)
					}
					run := func(lazy bool) (*engine.Result, string, error) {
						plan.SetLazyGathers(lazy)
						defer plan.SetLazyGathers(true)
						res, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
						if err != nil {
							return nil, "", err
						}
						traced, err := db.RunTraced(pl.Node)
						if err != nil {
							return nil, "", err
						}
						return res, spanTree(traced.Root), nil
					}
					eager, eagerSpans, eagerErr := run(false)
					lazy, lazySpans, lazyErr := run(true)
					if eagerErr != nil || lazyErr != nil {
						// A plan with nothing to spill is cancelled by the
						// budget, the same way on both paths.
						if fmt.Sprint(eagerErr) != fmt.Sprint(lazyErr) {
							t.Fatalf("eager error %v, lazy error %v", eagerErr, lazyErr)
						}
						return
					}
					if same, where := colstore.TablesIdentical(eager.Table, lazy.Table); !same {
						t.Fatalf("lazy gathers changed the result: %s", where)
					}
					if lazy.Counters != eager.Counters {
						t.Fatalf("lazy counters\n%+v\neager counters\n%+v", lazy.Counters, eager.Counters)
					}
					if lazySpans != eagerSpans {
						t.Fatalf("lazy span tree\n%s\neager span tree\n%s", lazySpans, eagerSpans)
					}
				})
			}
		}
	}
}

// TestLazyGroupByMatchesEager runs a group-by over a Filter's views —
// one input column, a date, read by no aggregate — on each of its paths
// (sequential under a longer morsel, morsels of 1 Ki rows, clustered
// chunks, scalar) at 1, 2
// and 8 workers, lazy and with every gather copying at once. Its
// aggregates read their arguments one morsel at a time, decoded from
// the views, and evaluate them into the worker's scratch, so each
// aggregate function meets a column, nested arithmetic, a constant on
// either side, an int64 promoted to float and a CASE over a string
// predicate. Tables must be byte-identical, counters and span trees
// identical.
func TestLazyGroupByMatchesEager(t *testing.T) {
	const n = 20000
	b := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "c", Type: colstore.Int64}, {Name: "k", Type: colstore.Int64},
		{Name: "p", Type: colstore.Float64}, {Name: "d", Type: colstore.Float64},
		{Name: "q", Type: colstore.Int64}, {Name: "s", Type: colstore.String},
		{Name: "u", Type: colstore.Date},
	})
	for i := range n {
		b.Int(0, int64(i/37))
		b.Int(1, int64(i*7%11))
		b.Float(2, float64(i%101)*1.25)
		b.Float(3, float64(i%9)/100)
		b.Int(4, int64(i%50))
		b.Str(5, []string{"x", "y", "z"}[i%3])
		b.Date(6, int32(9000+i%400))
		b.EndRow()
	}
	cat := engine.NewDB(engine.Config{})
	cat.Register(b.Build())
	p, d, q := exec.Col{Name: "p"}, exec.Col{Name: "d"}, exec.Col{Name: "q"}
	net := exec.Mul(p, exec.Sub(exec.ConstF{V: 1}, d))
	var aggs []plan.AggSpec
	for ai, arg := range []exec.Expr{
		p, q, net,
		exec.Div(exec.Add(p, exec.ConstF{V: 2}), exec.ConstF{V: 3}),
		exec.Mul(net, exec.Add(exec.ConstF{V: 1}, q)),
		exec.CaseWhenF{Pred: exec.StrEq{Column: "s", V: "x"}, Then: exec.Mul(p, d), Else: exec.ConstF{V: 0}},
	} {
		for _, fn := range []plan.AggFunc{plan.Sum, plan.Avg, plan.Min, plan.Max, plan.Count} {
			aggs = append(aggs, plan.AggSpec{Name: fmt.Sprintf("%s%d", fn, ai), Func: fn, Arg: arg})
		}
	}
	aggs = append(aggs, plan.AggSpec{Name: "sumi", Func: plan.SumI, Arg: q}, plan.AggSpec{Name: "count", Func: plan.Count})
	in := &plan.Filter{Input: &plan.Scan{Table: "t"}, Pred: exec.CmpF{Column: "p", Op: exec.Gt, V: 30}}
	for _, path := range []struct {
		name     string
		keys     []string
		morsel   int
		chunking bool // whether the run must show a group-partition span
	}{
		{"sequential", []string{"k"}, n + 1, false},
		{"morsel", []string{"k"}, 1 << 10, false},
		{"clustered", []string{"c"}, 1 << 10, true},
		{"scalar", nil, 1 << 10, false},
	} {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/W=%d", path.name, w), func(t *testing.T) {
				g := &plan.GroupBy{Input: in, Keys: path.keys, Aggs: aggs}
				run := func(lazy bool) (*plan.Result, string) {
					plan.SetLazyGathers(lazy)
					defer plan.SetLazyGathers(true)
					res, err := plan.RunContext(&plan.Context{Cat: cat, Workers: w, MorselRows: path.morsel, Trace: &obs.Tracer{}}, g)
					if err != nil {
						t.Fatal(err)
					}
					return res, spanTree(res.Root)
				}
				eager, eagerSpans := run(false)
				lazy, lazySpans := run(true)
				if chunked := strings.Contains(lazySpans, "group-partition"); chunked != path.chunking {
					t.Fatalf("group-partition span: %v, want %v\n%s", chunked, path.chunking, lazySpans)
				}
				if same, where := colstore.TablesIdentical(eager.Table, lazy.Table); !same {
					t.Fatalf("lazy group-by changed the result: %s", where)
				}
				if lazy.Counters != eager.Counters {
					t.Fatalf("lazy counters\n%+v\neager counters\n%+v", lazy.Counters, eager.Counters)
				}
				if lazySpans != eagerSpans {
					t.Fatalf("lazy span tree\n%s\neager span tree\n%s", lazySpans, eagerSpans)
				}
			})
		}
	}
}

// spanTree renders a span tree one span a line: depth, operator, label,
// rows, bytes and self counters, without the wall clock.
func spanTree(root *obs.Span) string {
	var b strings.Builder
	root.Walk(func(sp *obs.Span, depth int) {
		fmt.Fprintf(&b, "%d %s %q rows=%d bytes=%d %+v\n", depth, sp.Op, sp.Label, sp.Rows, sp.Bytes, sp.SelfCounters())
	})
	return b.String()
}
