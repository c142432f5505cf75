package plan

import (
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// raceEnabled reports whether the race detector is compiled in.
var raceEnabled bool

// TestUntracedRunsFormatNoLabels: a span label is formatted only on a
// traced run. Each plan below reaches some of the sites that build one —
// the key filter's label, its direct scan's and its outcome, the join's
// build and probe labels and its layout, the gathers, the clustered
// group-by's partition label and the spill join's partition and probe
// labels — and its untraced run must allocate no more than it does with
// every site guarded, so formatting any one label again fails here.
func TestUntracedRunsFormatNoLabels(t *testing.T) {
	const n = 4000
	k, v, half := make([]int64, n), make([]float64, n), make([]float64, n)
	for i := range k {
		k[i], v[i], half[i] = int64(i%100), float64(i%7), float64(i%7)+0.5
	}
	cat := cancelCatalog()
	cat["t"] = colstore.MustNewTable("t",
		colstore.Schema{{Name: "k", Type: colstore.Int64}, {Name: "v", Type: colstore.Float64}, {Name: "h", Type: colstore.Float64}},
		[]colstore.Column{&colstore.Int64s{V: k}, &colstore.Float64s{V: v}, &colstore.Float64s{V: half}})
	cat["p"] = colstore.MustNewTable("p", colstore.Schema{{Name: "pk", Type: colstore.Int64}},
		[]colstore.Column{&colstore.Int64s{V: []int64{3, 5, 7, 11, 60, 80}}})
	cat["wide"] = colstore.MustNewTable("wide", colstore.Schema{{Name: "pk", Type: colstore.Int64}},
		[]colstore.Column{&colstore.Int64s{V: k[:n/2]}})
	filtered := func(probe, exact string) Node {
		ks := &KeySet{From: []string{"pk"}}
		return &HashJoin{
			Build: &KeyFilter{
				Input: &Scan{Table: "t", Pred: exec.CmpI{Column: "k", Op: exec.Lt, V: 50}},
				Keys:  []string{"k"}, Exact: []string{exact}, Set: ks,
			},
			Probe: &Scan{Table: probe}, BuildKeys: []string{"k"}, ProbeKeys: []string{"pk"}, Sideways: ks,
		}
	}
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i / 8)
	}
	cat["s"] = colstore.MustNewTable("s", colstore.Schema{{Name: "g", Type: colstore.Int64}, {Name: "v", Type: colstore.Float64}},
		[]colstore.Column{&colstore.Int64s{V: sorted}, &colstore.Float64s{V: v}})

	for _, c := range []struct {
		name   string
		p      Node
		budget int64
		morsel int      // rows a morsel; 0 is exec.DefaultMorselRows
		labels []string // what the traced run's spans say
		allocs float64
	}{
		{"keyfilter kept", filtered("p", "v"), 0, 0,
			[]string{"keyfilter [k] 2000 → 160, positional, 78 slots", "scan t where k < 50", "gather 160 rows x 3 cols",
				"build [k] positional, 9 slots", "probe [pk]"}, 62},
		{"keyfilter skipped, too many probe keys", filtered("wide", "v"), 0, 0,
			[]string{"keyfilter [k] skipped (probe 2000 × 8 > 4000 rows)"}, 56},
		{"keyfilter skipped, sum not exact", filtered("p", "h"), 0, 0,
			[]string{"keyfilter [k] skipped (sum over h not exact)"}, 62},
		{"clustered group-by", &GroupBy{Input: &Scan{Table: "s"}, Keys: []string{"g"},
			Aggs: []AggSpec{{Name: "sum", Func: Sum, Arg: exec.Col{Name: "v"}}}}, 0, n, // one morsel, cut at a quarter morsel
			[]string{"clustered on g, 4 chunks"}, 53},
		{"spilled join", cancelPlan(), spillBudget, 0,
			[]string{"radix 32-way, budget 256k", "inner, 32 partitions (2 resident)"}, 360},
	} {
		dir := t.TempDir()
		run := func(tr *obs.Tracer) *Result {
			ctx := &Context{Cat: cat, Workers: 1, MorselRows: c.morsel, MemLimitBytes: c.budget, Trace: tr}
			if c.budget > 0 {
				ctx.SpillDir = dir
			}
			res, err := RunContext(ctx, c.p)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res
		}
		labels := map[string]bool{}
		run(&obs.Tracer{}).Root.Walk(func(sp *obs.Span, _ int) { labels[sp.Label] = true })
		for _, l := range c.labels {
			if !labels[l] {
				t.Errorf("%s: no span labelled %q; the plan no longer reaches that site", c.name, l)
			}
		}
		if raceEnabled {
			continue
		}
		run(nil) // grows the runner's scratch outside the measured runs
		if got := testing.AllocsPerRun(10, func() { run(nil) }); got > c.allocs {
			t.Errorf("%s: %.0f allocs a run, want at most %.0f", c.name, got, c.allocs)
		}
	}
}
