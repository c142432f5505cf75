package engine_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

// spanFacts is the deterministic portion of a span: everything except
// the measured wall clock.
type spanFacts struct {
	Depth    int
	Op       string
	Label    string
	Rows     int64
	Bytes    int64
	Counters exec.Counters
}

func flattenSpans(root *obs.Span) []spanFacts {
	var out []spanFacts
	root.Walk(func(sp *obs.Span, depth int) {
		out = append(out, spanFacts{
			Depth: depth, Op: sp.Op, Label: sp.Label,
			Rows: sp.Rows, Bytes: sp.Bytes, Counters: sp.Counters,
		})
	})
	return out
}

// TestSpanTreeDeterministicAcrossWorkers checks the merge determinism of
// the tracing layer: at 1, 2, 4, and 8 workers the span tree must agree
// on everything but wall time — same shape, same per-operator rows,
// bytes, and counter deltas. One field is excepted when comparing
// against the 1-worker run: MergeBytes counts bytes moved solely
// because of parallel execution, and the sequential path skips that
// movement by construction. Every parallel worker count must agree on
// MergeBytes too, since the morsel decomposition depends only on input
// size.
func TestSpanTreeDeterministicAcrossWorkers(t *testing.T) {
	dropMerge := func(spans []spanFacts) []spanFacts {
		out := append([]spanFacts(nil), spans...)
		for i := range out {
			out[i].Counters.MergeBytes = 0
		}
		return out
	}
	for _, q := range []int{1, 6} {
		t.Run(fmt.Sprintf("Q%d", q), func(t *testing.T) {
			p, err := tpch.Query(determinismDB(t), q)
			if err != nil {
				t.Fatal(err)
			}
			base, err := configuredDB(t, engine.Config{Workers: 1}).RunTraced(p)
			if err != nil {
				t.Fatal(err)
			}
			seq := dropMerge(flattenSpans(base.Root))
			if len(seq) < 3 {
				t.Fatalf("suspiciously small span tree (%d spans)", len(seq))
			}
			var par []spanFacts // reference parallel run (workers=2)
			for _, w := range []int{2, 4, 8} {
				res, err := configuredDB(t, engine.Config{Workers: w}).RunTraced(p)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				assertTablesIdentical(t, base.Table, res.Table, fmt.Sprintf("Q%d workers=%d", q, w))
				got := flattenSpans(res.Root)
				if len(got) != len(seq) {
					t.Fatalf("workers=%d: %d spans, want %d", w, len(got), len(seq))
				}
				for i, g := range dropMerge(got) {
					if g != seq[i] {
						t.Errorf("workers=%d span %d diverges from sequential:\n got %+v\nwant %+v", w, i, g, seq[i])
					}
				}
				if par == nil {
					par = got
					continue
				}
				for i := range par {
					if got[i] != par[i] {
						t.Errorf("workers=%d span %d diverges from workers=2 (MergeBytes included):\n got %+v\nwant %+v", w, i, got[i], par[i])
					}
				}
			}
		})
	}
}

// configuredDB is a database over determinismDB's tables under cfg.
func configuredDB(t *testing.T, cfg engine.Config) *engine.DB {
	t.Helper()
	src := determinismDB(t)
	db := engine.NewDB(cfg)
	for _, name := range src.TableNames() {
		tbl, err := src.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		db.Register(tbl)
	}
	return db
}

// TestRunTracedMatchesRun checks tracing is observation-only through
// every door a query takes: with no pool, on a shared pool, and under a
// memory budget that spills Q3, RunQuery and RunTraced return the same
// table and the same total counters, and a traced run's root span holds
// exactly those counters.
func TestRunTracedMatchesRun(t *testing.T) {
	p := tpch.MustQuery(determinismDB(t), 3)
	want, err := determinismDB(t).RunQuery(context.Background(), p, engine.QueryOpts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.NewPool(4)
	defer pool.Close()
	dbs := []struct {
		name  string
		cfg   engine.Config
		spill bool
	}{
		{"no-pool", engine.Config{Workers: 4}, false},
		{"pool", engine.Config{Workers: 4, Pool: pool}, false},
		{"budget", engine.Config{Workers: 4, MemBudgetBytes: spillBudgetBytes, SpillDir: t.TempDir()}, true},
	}
	for _, d := range dbs {
		db := configuredDB(t, d.cfg)
		plain, err := db.RunQuery(context.Background(), p, engine.QueryOpts{})
		if err != nil {
			t.Fatalf("%s RunQuery: %v", d.name, err)
		}
		traced, err := db.RunTraced(p)
		if err != nil {
			t.Fatalf("%s RunTraced: %v", d.name, err)
		}
		assertTablesIdentical(t, want.Table, plain.Table, d.name+" RunQuery")
		assertTablesIdentical(t, want.Table, traced.Table, d.name+" RunTraced")
		if spilled := plain.Counters.SpillWriteBytes > 0; spilled != d.spill {
			t.Errorf("%s: spilled=%v, want %v", d.name, spilled, d.spill)
		}
		if traced.Counters != plain.Counters {
			t.Errorf("%s: counters diverge:\n plain  %+v\n traced %+v", d.name, plain.Counters, traced.Counters)
		}
		if plain.Root != nil {
			t.Errorf("%s: untraced run returned a span tree", d.name)
		}
		if traced.Root == nil || traced.Root.Counters != traced.Counters {
			t.Errorf("%s: root span counters differ from the total %+v", d.name, traced.Counters)
		}
	}
}

// TestExplainAnalyzeQ1OnPi is the issue's acceptance check: EXPLAIN
// ANALYZE of Q1 with the Pi profile attributes the bulk of simulated
// time to the scan/aggregate pipeline.
func TestExplainAnalyzeQ1OnPi(t *testing.T) {
	db := determinismDB(t)
	p, err := tpch.Query(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	pi := hardware.Pi()
	out := obs.ExplainAnalyze(res.Root, obs.ExplainOptions{
		Sim: hardware.Sim{Model: hardware.DefaultModel(), Profile: &pi}, MaskWall: true,
	})
	if !strings.Contains(out, "scan lineitem") {
		t.Errorf("rendering missing scan operator:\n%s", out)
	}
	if !strings.Contains(out, "sim("+pi.Name+")") {
		t.Errorf("rendering missing simulated column:\n%s", out)
	}

	// The scan + aggregation spans must dominate the simulated time.
	model := hardware.DefaultModel()
	var total, pipeline float64
	res.Root.Walk(func(sp *obs.Span, _ int) {
		sec := model.OperatorTime(&pi, sp.SelfCounters(), 0).Seconds()
		total += sec
		if sp.Op == "scan" || sp.Op == "select" || sp.Op == "group-by" || sp.Op == "gather" {
			pipeline += sec
		}
	})
	if total <= 0 || pipeline/total < 0.9 {
		t.Errorf("scan/aggregate pipeline is %.1f%% of simulated time, want >= 90%%:\n%s",
			100*pipeline/total, out)
	}
}

// passNode is a plan node defined outside package plan that implements
// only plan.Node: it runs its input through Context.Run and returns the
// input's table.
type passNode struct{ input plan.Node }

func (p *passNode) Execute(ctx *plan.Context) (*colstore.Table, error) { return ctx.Run(p.input) }

func (p *passNode) Explain(depth int) string {
	return strings.Repeat("  ", depth) + "pass\n" + p.input.Explain(depth+1)
}

// TestForeignNodeTracedInPlace checks that a node from another package is
// traced inside without any hook of its own: under RunTraced its input's
// operator spans nest under its "node" span exactly as they stand in the
// input's own traced run, and the table and counters equal RunQuery's.
func TestForeignNodeTracedInPlace(t *testing.T) {
	db := determinismDB(t)
	inner := tpch.MustQuery(db, 3)
	p := &passNode{input: inner}
	plain, err := db.RunQuery(context.Background(), p, engine.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := db.RunTraced(p)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesIdentical(t, plain.Table, traced.Table, "Q3 under passNode")
	if traced.Counters != plain.Counters {
		t.Errorf("counters diverge:\n plain  %+v\n traced %+v", plain.Counters, traced.Counters)
	}
	root := traced.Root
	if root == nil || root.Op != "node" || root.Label != "pass" || len(root.Children) != 1 {
		t.Fatalf("root span = %+v, want one node span labelled pass with one child", root)
	}
	direct, err := db.RunTraced(inner)
	if err != nil {
		t.Fatal(err)
	}
	want, got := flattenSpans(direct.Root), flattenSpans(root.Children[0])
	if len(want) < 3 || len(got) != len(want) {
		t.Fatalf("%d spans under pass, want %d (input's own traced run)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d under pass:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
