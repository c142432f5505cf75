package sql_test

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// keyFilterCases are the shapes the placement rules distinguish. under is
// the start of the operator right below each key filter on the named key
// columns, in plan order ("" when there must be none); ran is how the
// filter must have decided at SF 0.01: "→" for run, "skipped" otherwise.
var keyFilterCases = []struct {
	name, text, keys string
	under            []string
	ran              string
}{
	{"the join key is a group key", `
with t as (select l_orderkey, count(*) as n from lineitem group by l_orderkey)
select o_orderkey, n from orders, t
where l_orderkey = o_orderkey and o_orderdate < date '1992-03-01'`,
		"l_orderkey", []string{"scan lineitem"}, "→"},
	{"the key passes a project that renames it", `
with t as (select l_orderkey as okey, max(l_discount) as d from lineitem group by okey)
select o_orderkey, d from orders, t
where okey = o_orderkey and o_orderdate < date '1992-03-01'`,
		"l_orderkey", []string{"scan lineitem"}, "→"},
	{"a filter on an aggregate sits above the group-by", `
select o_orderkey, n from orders,
  (select l_orderkey, count(*) as n from lineitem group by l_orderkey having n > 3) as big
where l_orderkey = o_orderkey and o_orderdate < date '1992-03-01'`,
		"l_orderkey", []string{"scan lineitem"}, "→"},
	{"a CTE referenced twice keeps the filter above its memo", `
with t as (select l_orderkey, count(*) as n from lineitem group by l_orderkey)
select o_orderkey, n from orders, t
where l_orderkey = o_orderkey and o_orderdate < date '1992-03-01'
  and o_orderkey in (select l_orderkey from t where n > 5)`,
		"l_orderkey", []string{"cte t", "cte t"}, "→"},
	{"a derived table's ORDER BY ... LIMIT stops the filter", `
select o_orderkey, n from orders,
  (select l_orderkey, count(*) as n from lineitem group by l_orderkey
   order by n desc limit 50) as top
where l_orderkey = o_orderkey`,
		"l_orderkey", []string{"order by"}, "skipped"},
	{"anti and left joins get none", `
select c_custkey, c_count from
  (select c_custkey, count(o_orderkey) as c_count
   from customer left join orders on o_custkey = c_custkey
   group by c_custkey) as counts
where c_custkey not in (select s_suppkey from supplier)`,
		"", nil, ""},
	{"a key that is not a grouping key stops it above the group-by", `
select s_name, l_orderkey from supplier,
  (select l_orderkey, count(*) as n from lineitem group by l_orderkey) as c
where n = s_suppkey and s_suppkey < 3`,
		"n", []string{"group by"}, "→"},
	{"a sum over an expression stops it above the group-by", `
select o_orderkey, rev from orders,
  (select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev
   from lineitem group by l_orderkey) as r
where l_orderkey = o_orderkey and o_orderdate < date '1992-03-01'`,
		"l_orderkey", []string{"group by"}, "→"},
	{"a sum of fractions is placed but not exact", `
select o_orderkey, price from orders,
  (select l_orderkey, sum(l_extendedprice) as price from lineitem group by l_orderkey) as p
where l_orderkey = o_orderkey and o_orderdate < date '1992-03-01'`,
		"l_orderkey", []string{"scan lineitem"}, "not exact"},
	{"a two-column key", `
with shipped as (
  select l_partkey, l_suppkey, sum(l_quantity) as q from lineitem
  group by l_partkey, l_suppkey)
select ps_partkey, ps_suppkey, q from partsupp, shipped
where l_partkey = ps_partkey and l_suppkey = ps_suppkey and ps_partkey < 40`,
		"l_partkey, l_suppkey", []string{"scan lineitem"}, "→"},
}

// filtersOn lists, in plan order, the operator right below each key
// filter on keys.
func filtersOn(explain, keys string) []string {
	lines := strings.Split(explain, "\n")
	var out []string
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "keyfilter ["+keys+"]") && i+1 < len(lines) {
			out = append(out, strings.TrimSpace(lines[i+1]))
		}
	}
	return out
}

// keyFilterSpans lists the labels of a traced run's key filter spans.
func keyFilterSpans(root *obs.Span) []string {
	var out []string
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Op == "keyfilter" {
			out = append(out, sp.Label)
		}
	})
	return out
}

// TestKeyFilterPlacement: each shape puts its filter where the rules say,
// decides as expected, and answers byte for byte what the unoptimized plan
// answers, at 1, 2 and 8 workers in both engines.
func TestKeyFilterPlacement(t *testing.T) {
	data := fixture()
	for _, tc := range keyFilterCases {
		t.Run(tc.name, func(t *testing.T) {
			ref := engine.NewDB(engine.Config{Workers: 1})
			data.RegisterAll(ref)
			pl, err := sql.Plan(ref, tc.text, sql.Options{UniqueKeys: tpch.TableKeys()})
			if err != nil {
				t.Fatal(err)
			}
			explain := pl.Node.Explain(0)
			if tc.keys == "" {
				if strings.Contains(explain, "keyfilter") {
					t.Fatalf("want no key filter:\n%s", explain)
				}
			} else if got := filtersOn(explain, tc.keys); len(got) != len(tc.under) {
				t.Fatalf("filters on [%s] above %q, want above %q:\n%s", tc.keys, got, tc.under, explain)
			} else {
				for i := range got {
					if !strings.HasPrefix(got[i], tc.under[i]) {
						t.Fatalf("filters on [%s] above %q, want above %q:\n%s", tc.keys, got, tc.under, explain)
					}
				}
			}
			noOpt, err := sql.Plan(ref, tc.text, sql.Options{UniqueKeys: tpch.TableKeys(), NoOpt: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.RunQuery(context.Background(), noOpt.Node, engine.QueryOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 8} {
				for _, mode := range []plan.ExecMode{plan.ExecVector, plan.ExecFused} {
					db := engine.NewDB(engine.Config{Workers: w, Exec: mode})
					data.RegisterAll(db)
					pl, err := sql.Plan(db, tc.text, sql.Options{UniqueKeys: tpch.TableKeys()})
					if err != nil {
						t.Fatal(err)
					}
					got, err := db.RunTraced(pl.Node)
					if err != nil {
						t.Fatalf("w%d/%s: %v", w, mode, err)
					}
					if same, where := colstore.TablesIdentical(want.Table, got.Table); !same {
						t.Fatalf("w%d/%s: differs from the unoptimized plan: %s", w, mode, where)
					}
					if tc.keys == "" {
						continue
					}
					decided := false
					for _, label := range keyFilterSpans(got.Root) {
						decided = decided || strings.HasPrefix(label, "keyfilter ["+tc.keys+"]") && strings.Contains(label, tc.ran)
					}
					if !decided {
						t.Fatalf("w%d/%s: no filter on [%s] %s: %q", w, mode, tc.keys, tc.ran, keyFilterSpans(got.Root))
					}
				}
			}
		})
	}
}

// TestKeyFilterDecisionsWorkerIndependent: on all 22 statements every
// filter decides the same way and keeps the same rows at 1, 2 and 8
// workers, and the run charges the same work at 2 and 8. One worker
// charges a little less, as it did before there were key filters: it
// stitches no morsel outputs (MergeBytes) and pays per-call constants once.
func TestKeyFilterDecisionsWorkerIndependent(t *testing.T) {
	data := fixture()
	var spans, work [23]string
	for _, w := range []int{1, 2, 8} {
		db := engine.NewDB(engine.Config{Workers: w})
		data.RegisterAll(db)
		for q := 1; q <= 22; q++ {
			res, err := db.RunTraced(planSQL(t, db, q).Node)
			if err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
			got := strings.Join(keyFilterSpans(res.Root), "\n")
			if w == 1 {
				spans[q] = got
			} else if got != spans[q] {
				t.Errorf("Q%d: key filters at 1 and %d workers differ:\n%s\nvs\n%s", q, w, spans[q], got)
			}
			if c := fmt.Sprintf("%+v", res.Counters); w == 2 {
				work[q] = c
			} else if w == 8 && c != work[q] {
				t.Errorf("Q%d: work at 2 and 8 workers differs:\n%s\n%s", q, work[q], c)
			}
		}
	}
	// Q21's key set is a join build side like any other, so it takes the
	// positional layout at every worker count.
	if !regexp.MustCompile(`keyfilter \[l_orderkey\] 60112 → \d+, positional, \d+ slots`).MatchString(spans[21]) ||
		!strings.Contains(spans[18], "keyfilter [l_orderkey] skipped") {
		t.Errorf("want Q21's lineitem filters to run positionally and Q18's to skip:\nQ21:\n%s\nQ18:\n%s", spans[21], spans[18])
	}
}

// TestKeyFiltersUnderBudget: a key set too large for the memory budget is
// built and probed through the spill joiner like any join build side, and
// the queries whose filters run still answer byte for byte.
func TestKeyFiltersUnderBudget(t *testing.T) {
	data := fixture()
	free := engine.NewDB(engine.Config{})
	data.RegisterAll(free)
	budgeted := engine.NewDB(engine.Config{MemBudgetBytes: 64 << 10, SpillDir: t.TempDir()})
	data.RegisterAll(budgeted)
	for _, q := range []int{4, 20, 21} {
		want, err := free.RunQuery(context.Background(), planSQL(t, free, q).Node, engine.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := budgeted.RunTraced(planSQL(t, budgeted, q).Node)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if ok, why := colstore.TablesIdentical(want.Table, got.Table); !ok {
			t.Fatalf("Q%d: budgeted result differs: %s", q, why)
		}
		if spans := strings.Join(keyFilterSpans(got.Root), "\n"); !strings.Contains(spans, "→") || got.Counters.SpillWriteBytes == 0 {
			t.Fatalf("Q%d: want a filter that ran and a spill:\n%s\n%+v", q, spans, got.Counters)
		}
	}
}
