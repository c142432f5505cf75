package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// memCatalog is a trivial Catalog for tests.
type memCatalog map[string]*colstore.Table

func (m memCatalog) Table(name string) (*colstore.Table, error) {
	t, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return t, nil
}

func testCatalog() memCatalog {
	// orders(o_id, o_cust, o_total, o_date, o_status)
	ob := colstore.NewTableBuilder("orders", colstore.Schema{
		{Name: "o_id", Type: colstore.Int64},
		{Name: "o_cust", Type: colstore.Int64},
		{Name: "o_total", Type: colstore.Float64},
		{Name: "o_date", Type: colstore.Date},
		{Name: "o_status", Type: colstore.String},
	})
	orders := []struct {
		id, cust int64
		total    float64
		date     string
		status   string
	}{
		{1, 10, 100, "1994-01-01", "OPEN"},
		{2, 10, 50, "1994-02-01", "DONE"},
		{3, 20, 75, "1994-03-01", "OPEN"},
		{4, 30, 25, "1995-01-01", "DONE"},
		{5, 20, 125, "1995-06-01", "OPEN"},
	}
	for _, o := range orders {
		ob.Int(0, o.id)
		ob.Int(1, o.cust)
		ob.Float(2, o.total)
		ob.Date(3, colstore.MustDate(o.date))
		ob.Str(4, o.status)
		ob.EndRow()
	}
	// cust(c_id, c_name)
	cb := colstore.NewTableBuilder("cust", colstore.Schema{
		{Name: "c_id", Type: colstore.Int64},
		{Name: "c_name", Type: colstore.String},
	})
	for _, c := range []struct {
		id   int64
		name string
	}{{10, "alice"}, {20, "bob"}, {30, "carol"}, {40, "dave"}} {
		cb.Int(0, c.id)
		cb.Str(1, c.name)
		cb.EndRow()
	}
	return memCatalog{"orders": ob.Build(), "cust": cb.Build()}
}

func mustRun(t *testing.T, cat Catalog, n Node) *colstore.Table {
	t.Helper()
	out, err := runTable(cat, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runTable is Run for tests that only look at the result table.
func runTable(cat Catalog, workers int, n Node) (*colstore.Table, error) {
	res, err := Run(cat, workers, n)
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

func TestScanAndFilter(t *testing.T) {
	cat := testCatalog()
	// Bare scan is zero-copy.
	out := mustRun(t, cat, &Scan{Table: "orders"})
	if out.NumRows() != 5 {
		t.Fatalf("scan rows = %d", out.NumRows())
	}
	// Scan with projection and predicate.
	out = mustRun(t, cat, &Scan{
		Table:   "orders",
		Columns: []string{"o_id", "o_total"},
		Pred:    exec.CmpF{Column: "o_total", Op: exec.Ge, V: 75},
	})
	if out.NumRows() != 3 || out.NumCols() != 2 {
		t.Fatalf("filtered scan = %dx%d", out.NumRows(), out.NumCols())
	}
	// Filter node over a scan.
	out = mustRun(t, cat, &Filter{
		Input: &Scan{Table: "orders"},
		Pred:  exec.StrEq{Column: "o_status", V: "OPEN"},
	})
	if out.NumRows() != 3 {
		t.Fatalf("filter rows = %d", out.NumRows())
	}
	// Missing table and column errors.
	if _, err := Run(cat, 1, &Scan{Table: "nope"}); err == nil {
		t.Error("scan of missing table should error")
	}
	if _, err := Run(cat, 1, &Scan{Table: "orders", Columns: []string{"zzz"}}); err == nil {
		t.Error("projection of missing column should error")
	}
	if _, err := Run(cat, 1, &Filter{Input: &Scan{Table: "orders"}, Pred: exec.CmpI{Column: "zzz"}}); err == nil {
		t.Error("filter on missing column should error")
	}
}

func TestProjectAndRename(t *testing.T) {
	cat := testCatalog()
	out := mustRun(t, cat, &Project{
		Input: &Scan{Table: "orders"},
		Cols: []NamedExpr{
			{Name: "id", Expr: exec.Col{Name: "o_id"}},
			{Name: "half", Expr: exec.Div(exec.Col{Name: "o_total"}, exec.ConstF{V: 2})},
			{Name: "yr", Expr: exec.YearExpr{Arg: exec.Col{Name: "o_date"}}},
		},
	})
	if out.NumCols() != 3 {
		t.Fatalf("project cols = %d", out.NumCols())
	}
	if out.MustCol("half").(*colstore.Float64s).V[0] != 50 {
		t.Error("computed column wrong")
	}
	if out.MustCol("yr").(*colstore.Int64s).V[4] != 1995 {
		t.Error("year column wrong")
	}

	ren := mustRun(t, cat, &Rename{
		Input: &Scan{Table: "cust"},
		Pairs: [][2]string{{"c_id", "id2"}},
	})
	if ren.Schema.Index("id2") < 0 || ren.Schema.Index("c_id") >= 0 {
		t.Error("rename failed")
	}
	if _, err := Run(cat, 1, &Rename{Input: &Scan{Table: "cust"}, Pairs: [][2]string{{"zzz", "a"}}}); err == nil {
		t.Error("rename of missing column should error")
	}
	if _, err := Run(cat, 1, &Project{Input: &Scan{Table: "cust"}, Cols: []NamedExpr{{Name: "x", Expr: exec.Col{Name: "zzz"}}}}); err == nil {
		t.Error("project of missing column should error")
	}
}

func TestHashJoinKinds(t *testing.T) {
	cat := testCatalog()
	join := &HashJoin{
		Build:     &Scan{Table: "cust"},
		Probe:     &Scan{Table: "orders"},
		BuildKeys: []string{"c_id"},
		ProbeKeys: []string{"o_cust"},
		Kind:      Inner,
	}
	out := mustRun(t, cat, join)
	if out.NumRows() != 5 {
		t.Fatalf("inner join rows = %d", out.NumRows())
	}
	if out.Schema.Index("c_name") < 0 || out.Schema.Index("o_total") < 0 {
		t.Error("inner join missing columns")
	}
	// Every row must satisfy the join condition.
	cid := out.MustCol("c_id").(*colstore.Int64s).V
	ocust := out.MustCol("o_cust").(*colstore.Int64s).V
	for i := range cid {
		if cid[i] != ocust[i] {
			t.Fatalf("join row %d violates condition", i)
		}
	}

	semi := mustRun(t, cat, &HashJoin{
		Build:     &Scan{Table: "orders", Pred: exec.StrEq{Column: "o_status", V: "OPEN"}},
		Probe:     &Scan{Table: "cust"},
		BuildKeys: []string{"o_cust"},
		ProbeKeys: []string{"c_id"},
		Kind:      Semi,
	})
	if semi.NumRows() != 2 { // alice and bob have OPEN orders
		t.Fatalf("semi join rows = %d", semi.NumRows())
	}
	anti := mustRun(t, cat, &HashJoin{
		Build:     &Scan{Table: "orders"},
		Probe:     &Scan{Table: "cust"},
		BuildKeys: []string{"o_cust"},
		ProbeKeys: []string{"c_id"},
		Kind:      Anti,
	})
	if anti.NumRows() != 1 || anti.MustCol("c_name").(*colstore.Strings).Value(0) != "dave" {
		t.Fatalf("anti join wrong: %d rows", anti.NumRows())
	}
	lc := mustRun(t, cat, &HashJoin{
		Build:     &Scan{Table: "orders"},
		Probe:     &Scan{Table: "cust"},
		BuildKeys: []string{"o_cust"},
		ProbeKeys: []string{"c_id"},
		Kind:      LeftCount,
		CountAs:   "n_orders",
	})
	if lc.NumRows() != 4 {
		t.Fatalf("left-count rows = %d", lc.NumRows())
	}
	counts := lc.MustCol("n_orders").(*colstore.Int64s).V
	want := []int64{2, 2, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("left-count = %v, want %v", counts, want)
		}
	}
}

func TestHashJoinTwoKeyAndErrors(t *testing.T) {
	cat := testCatalog()
	// Two-key self join on (o_cust, o_status-as-key is string; use o_id+o_cust).
	out := mustRun(t, cat, &HashJoin{
		Build:     &Rename{Input: &Scan{Table: "orders", Columns: []string{"o_id", "o_cust"}}, Pairs: [][2]string{{"o_id", "b_id"}, {"o_cust", "b_cust"}}},
		Probe:     &Scan{Table: "orders"},
		BuildKeys: []string{"b_id", "b_cust"},
		ProbeKeys: []string{"o_id", "o_cust"},
		Kind:      Inner,
	})
	if out.NumRows() != 5 {
		t.Fatalf("two-key self join rows = %d, want 5", out.NumRows())
	}

	// Key list mismatch.
	if _, err := Run(cat, 1, &HashJoin{
		Build: &Scan{Table: "cust"}, Probe: &Scan{Table: "orders"},
		BuildKeys: []string{"c_id"}, ProbeKeys: []string{"o_cust", "o_id"},
	}); err == nil {
		t.Error("mismatched key lists should error")
	}
	// Duplicate output columns without rename.
	if _, err := Run(cat, 1, &HashJoin{
		Build: &Scan{Table: "orders"}, Probe: &Scan{Table: "orders"},
		BuildKeys: []string{"o_id"}, ProbeKeys: []string{"o_id"}, Kind: Inner,
	}); err == nil {
		t.Error("duplicate columns should error")
	}
	// Three keys unsupported.
	if _, err := Run(cat, 1, &HashJoin{
		Build: &Scan{Table: "orders"}, Probe: &Scan{Table: "orders"},
		BuildKeys: []string{"o_id", "o_cust", "o_total"}, ProbeKeys: []string{"o_id", "o_cust", "o_total"},
	}); err == nil {
		t.Error("three keys should error")
	}
	// Float key column.
	if _, err := Run(cat, 1, &HashJoin{
		Build: &Scan{Table: "orders"}, Probe: &Scan{Table: "cust"},
		BuildKeys: []string{"o_total"}, ProbeKeys: []string{"c_id"}, Kind: Semi,
	}); err == nil {
		t.Error("float key should error")
	}
}

func TestGroupByGrouped(t *testing.T) {
	cat := testCatalog()
	out := mustRun(t, cat, &GroupBy{
		Input: &Scan{Table: "orders"},
		Keys:  []string{"o_cust"},
		Aggs: []AggSpec{
			{Name: "total", Func: Sum, Arg: exec.Col{Name: "o_total"}},
			{Name: "n", Func: Count},
			{Name: "avg_total", Func: Avg, Arg: exec.Col{Name: "o_total"}},
			{Name: "min_total", Func: Min, Arg: exec.Col{Name: "o_total"}},
			{Name: "max_total", Func: Max, Arg: exec.Col{Name: "o_total"}},
		},
	})
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	// First-occurrence order: cust 10, 20, 30.
	cust := out.MustCol("o_cust").(*colstore.Int64s).V
	if cust[0] != 10 || cust[1] != 20 || cust[2] != 30 {
		t.Fatalf("group order = %v", cust)
	}
	sums := out.MustCol("total").(*colstore.Float64s).V
	if sums[0] != 150 || sums[1] != 200 || sums[2] != 25 {
		t.Fatalf("sums = %v", sums)
	}
	ns := out.MustCol("n").(*colstore.Int64s).V
	if ns[0] != 2 || ns[1] != 2 || ns[2] != 1 {
		t.Fatalf("counts = %v", ns)
	}
	avgs := out.MustCol("avg_total").(*colstore.Float64s).V
	if avgs[0] != 75 || avgs[2] != 25 {
		t.Fatalf("avgs = %v", avgs)
	}
	mins := out.MustCol("min_total").(*colstore.Float64s).V
	maxs := out.MustCol("max_total").(*colstore.Float64s).V
	if mins[1] != 75 || maxs[1] != 125 {
		t.Fatalf("min/max = %v %v", mins, maxs)
	}
}

func TestGroupByMultiKeyAndScalar(t *testing.T) {
	cat := testCatalog()
	out := mustRun(t, cat, &GroupBy{
		Input: &Scan{Table: "orders"},
		Keys:  []string{"o_cust", "o_status"},
		Aggs:  []AggSpec{{Name: "n", Func: Count}},
	})
	if out.NumRows() != 4 { // (10,OPEN),(10,DONE),(20,OPEN),(30,DONE)
		t.Fatalf("multi-key groups = %d", out.NumRows())
	}
	if out.MustCol("o_status").(*colstore.Strings).Value(0) != "OPEN" {
		t.Error("string key not preserved")
	}

	scalar := mustRun(t, cat, &GroupBy{
		Input: &Scan{Table: "orders"},
		Aggs: []AggSpec{
			{Name: "total", Func: Sum, Arg: exec.Col{Name: "o_total"}},
			{Name: "n", Func: Count},
			{Name: "avg", Func: Avg, Arg: exec.Col{Name: "o_total"}},
			{Name: "mn", Func: Min, Arg: exec.Col{Name: "o_total"}},
			{Name: "mx", Func: Max, Arg: exec.Col{Name: "o_total"}},
		},
	})
	if scalar.NumRows() != 1 {
		t.Fatalf("scalar agg rows = %d", scalar.NumRows())
	}
	if v := scalar.MustCol("total").(*colstore.Float64s).V[0]; v != 375 {
		t.Errorf("scalar sum = %v", v)
	}
	if v := scalar.MustCol("n").(*colstore.Int64s).V[0]; v != 5 {
		t.Errorf("scalar count = %v", v)
	}
	if v := scalar.MustCol("avg").(*colstore.Float64s).V[0]; v != 75 {
		t.Errorf("scalar avg = %v", v)
	}
	if v := scalar.MustCol("mn").(*colstore.Float64s).V[0]; v != 25 {
		t.Errorf("scalar min = %v", v)
	}
	if v := scalar.MustCol("mx").(*colstore.Float64s).V[0]; v != 125 {
		t.Errorf("scalar max = %v", v)
	}

	// Scalar aggregates over empty input still return one row.
	empty := mustRun(t, cat, &GroupBy{
		Input: &Scan{Table: "orders", Pred: exec.CmpF{Column: "o_total", Op: exec.Gt, V: 1e9}},
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Arg: exec.Col{Name: "o_total"}},
			{Name: "a", Func: Avg, Arg: exec.Col{Name: "o_total"}},
			{Name: "mn", Func: Min, Arg: exec.Col{Name: "o_total"}},
		},
	})
	if empty.NumRows() != 1 || empty.MustCol("n").(*colstore.Int64s).V[0] != 0 {
		t.Error("empty scalar agg wrong")
	}
	if empty.MustCol("s").(*colstore.Float64s).V[0] != 0 {
		t.Error("empty sum not 0")
	}

	// Grouped agg over empty input returns zero rows.
	emptyG := mustRun(t, cat, &GroupBy{
		Input: &Scan{Table: "orders", Pred: exec.CmpF{Column: "o_total", Op: exec.Gt, V: 1e9}},
		Keys:  []string{"o_cust"},
		Aggs:  []AggSpec{{Name: "n", Func: Count}},
	})
	if emptyG.NumRows() != 0 {
		t.Errorf("empty grouped agg rows = %d", emptyG.NumRows())
	}

	// Error paths.
	if _, err := Run(cat, 1, &GroupBy{
		Input: &Scan{Table: "orders"}, Keys: []string{"zzz"},
		Aggs: []AggSpec{{Name: "n", Func: Count}},
	}); err == nil {
		t.Error("missing key should error")
	}
	if _, err := Run(cat, 1, &GroupBy{
		Input: &Scan{Table: "orders"}, Keys: []string{"o_cust"},
		Aggs: []AggSpec{{Name: "s", Func: Sum}},
	}); err == nil {
		t.Error("sum without arg should error")
	}
	if _, err := Run(cat, 1, &GroupBy{
		Input: &Scan{Table: "orders"}, Keys: []string{"o_total"},
		Aggs: []AggSpec{{Name: "n", Func: Count}},
	}); err == nil {
		t.Error("float group key should error")
	}
}

func TestOrderByAndLimit(t *testing.T) {
	cat := testCatalog()
	out := mustRun(t, cat, &OrderBy{
		Input: &Scan{Table: "orders"},
		Keys:  []exec.SortKey{{Column: "o_total", Desc: true}},
	})
	v := out.MustCol("o_total").(*colstore.Float64s).V
	if v[0] != 125 || v[4] != 25 {
		t.Fatalf("order by desc = %v", v)
	}
	top := mustRun(t, cat, &OrderBy{
		Input: &Scan{Table: "orders"},
		Keys:  []exec.SortKey{{Column: "o_total", Desc: true}},
		N:     2,
	})
	if top.NumRows() != 2 || top.MustCol("o_total").(*colstore.Float64s).V[1] != 100 {
		t.Fatal("top-n wrong")
	}
	lim := mustRun(t, cat, &Limit{Input: &Scan{Table: "orders"}, N: 3})
	if lim.NumRows() != 3 {
		t.Fatalf("limit rows = %d", lim.NumRows())
	}
	lim = mustRun(t, cat, &Limit{Input: &Scan{Table: "orders"}, N: 100})
	if lim.NumRows() != 5 {
		t.Fatalf("limit beyond size rows = %d", lim.NumRows())
	}
}

func TestExplainCoversAllNodes(t *testing.T) {
	n := &OrderBy{
		Input: &Limit{
			Input: &GroupBy{
				Input: &HashJoin{
					Build:     &Rename{Input: &Scan{Table: "cust"}, Pairs: [][2]string{{"c_id", "id"}}},
					Probe:     &Project{Input: &Filter{Input: &Scan{Table: "orders", Columns: []string{"o_id"}, Pred: exec.TruePred{}}, Pred: exec.TruePred{}}, Cols: []NamedExpr{{Name: "x", Expr: exec.Col{Name: "o_id"}}}},
					BuildKeys: []string{"id"},
					ProbeKeys: []string{"x"},
					Kind:      Semi,
				},
				Keys: []string{"x"},
				Aggs: []AggSpec{{Name: "n", Func: Count}, {Name: "s", Func: Sum, Arg: exec.Col{Name: "x"}}},
			},
			N: 10,
		},
		Keys: []exec.SortKey{{Column: "n", Desc: true}},
		N:    5,
	}
	s := Explain(n)
	for _, want := range []string{"order by", "limit", "group by", "hash join (semi)", "rename", "project", "filter", "scan cust", "scan orders"} {
		if !strings.Contains(s, want) {
			t.Errorf("explain missing %q in:\n%s", want, s)
		}
	}
}

func TestParallelSelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := DefaultMinParallelRows * 3
	b := colstore.NewTableBuilder("big", colstore.Schema{{Name: "v", Type: colstore.Int64}})
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.Int(0, rng.Int63n(1000))
		b.EndRow()
	}
	cat := memCatalog{"big": b.Build()}
	pred := exec.CmpI{Column: "v", Op: exec.Lt, V: 500}

	seq, err := runTable(cat, 1, &Scan{Table: "big", Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runTable(cat, 8, &Scan{Table: "big", Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumRows() != par.NumRows() {
		t.Fatalf("parallel rows %d != sequential %d", par.NumRows(), seq.NumRows())
	}
	sv := seq.MustCol("v").(*colstore.Int64s).V
	pv := par.MustCol("v").(*colstore.Int64s).V
	for i := range sv {
		if sv[i] != pv[i] {
			t.Fatalf("row %d differs: %d vs %d", i, sv[i], pv[i])
		}
	}
	// Errors propagate from workers.
	if _, err := Run(cat, 8, &Scan{Table: "big", Pred: exec.CmpI{Column: "zzz", Op: exec.Lt, V: 1}}); err == nil {
		t.Error("parallel sel should propagate errors")
	}
}

func TestCountersCharged(t *testing.T) {
	cat := testCatalog()
	res, err := Run(cat, 1, &GroupBy{
		Input: &Scan{Table: "orders", Pred: exec.CmpF{Column: "o_total", Op: exec.Gt, V: 0}},
		Keys:  []string{"o_cust"},
		Aggs:  []AggSpec{{Name: "s", Func: Sum, Arg: exec.Col{Name: "o_total"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctr := res.Counters
	if ctr.TuplesScanned == 0 || ctr.SeqBytes == 0 || ctr.AggUpdates == 0 ||
		ctr.TuplesMaterialized == 0 || ctr.PeakLiveBytes == 0 {
		t.Errorf("counters not charged: %+v", ctr)
	}
}

func TestJoinAndGroupStrings(t *testing.T) {
	for _, k := range []JoinKind{Inner, Semi, Anti, LeftCount} {
		if k.String() == "" {
			t.Error("empty JoinKind string")
		}
	}
	for _, f := range []AggFunc{Sum, Count, Avg, Min, Max} {
		if f.String() == "" {
			t.Error("empty AggFunc string")
		}
	}
}
