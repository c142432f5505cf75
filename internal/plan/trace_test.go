package plan

import (
	"strings"
	"testing"

	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// tracedRun is RunContext asking for a traced run.
func tracedRun(cat Catalog, workers int, n Node) (*Result, error) {
	return RunContext(&Context{Cat: cat, Workers: workers, Trace: &obs.Tracer{}}, n)
}

func TestAnalyzeMatchesRunAndAttributesWork(t *testing.T) {
	cat := testCatalog()
	node := &GroupBy{
		Input: &HashJoin{
			Build:     &Scan{Table: "cust"},
			Probe:     &Scan{Table: "orders", Pred: exec.CmpF{Column: "o_total", Op: exec.Gt, V: 30}},
			BuildKeys: []string{"c_id"},
			ProbeKeys: []string{"o_cust"},
			Kind:      Inner,
		},
		Keys: []string{"c_name"},
		Aggs: []AggSpec{{Name: "total", Func: Sum, Arg: exec.Col{Name: "o_total"}}},
	}
	plain, err := RunContext(&Context{Cat: cat, Workers: 1}, node)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Root != nil {
		t.Error("untraced run returned a span tree")
	}
	traced, err := tracedRun(cat, 1, node)
	if err != nil {
		t.Fatal(err)
	}
	// Same result and same totals.
	if traced.Table.NumRows() != plain.Table.NumRows() {
		t.Fatalf("traced rows %d != plain %d", traced.Table.NumRows(), plain.Table.NumRows())
	}
	if traced.Counters != plain.Counters {
		t.Errorf("traced counters diverge: %+v vs %+v", traced.Counters, plain.Counters)
	}
	type row struct {
		sp    *obs.Span
		depth int
	}
	var spans []row
	traced.Root.Walk(func(sp *obs.Span, depth int) { spans = append(spans, row{sp, depth}) })
	labels := func() string {
		var b strings.Builder
		for _, r := range spans {
			b.WriteString(strings.Repeat("  ", r.depth) + r.sp.Label + "\n")
		}
		return b.String()
	}
	// One span per operator: groupby, join, 2 scans, the join's build and
	// probe phases, and 3 gathers (filtered scan, and the inner join's two
	// output gathers).
	if len(spans) != 9 {
		t.Fatalf("spans = %d, want 9:\n%s", len(spans), labels())
	}
	for _, op := range []string{"build [c_id] positional, 31 slots", "probe [o_cust]"} {
		found := false
		for _, r := range spans {
			if r.sp.Label == op {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %q phase span:\n%s", op, labels())
		}
	}
	// Pre-order: the root is first and has depth 0.
	if spans[0].depth != 0 || !strings.Contains(spans[0].sp.Label, "group by") {
		t.Errorf("root span wrong: %+v at depth %d", spans[0].sp, spans[0].depth)
	}
	// Exclusive counters sum to the totals.
	var sum int64
	for _, r := range spans {
		if r.sp.Rows < 0 || r.sp.SelfWall() < 0 {
			t.Errorf("negative exclusive measurement: %+v", r.sp)
		}
		sum += r.sp.SelfCounters().TuplesScanned
	}
	if sum != traced.Counters.TuplesScanned {
		t.Errorf("exclusive TuplesScanned sum %d != total %d", sum, traced.Counters.TuplesScanned)
	}
}

func TestAnalyzeErrorPropagates(t *testing.T) {
	cat := testCatalog()
	if _, err := tracedRun(cat, 1, &Scan{Table: "missing"}); err == nil {
		t.Error("traced run of bad plan should error")
	}
}
