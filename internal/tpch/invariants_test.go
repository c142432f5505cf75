package tpch

import (
	"context"
	"math"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
)

// The invariant tests check structural properties of every query's
// result that hold at any scale factor, complementing the exact
// reference comparison.

func TestQueryResultInvariants(t *testing.T) {
	db, _ := sharedFixture(t)
	get := func(q int) *colstore.Table {
		res, err := db.RunQuery(context.Background(), MustQuery(q), engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		return res.Table
	}

	// Q1: at most 6 (returnflag, linestatus) groups; averages consistent
	// with sums and counts.
	q1 := get(1)
	if q1.NumRows() < 3 || q1.NumRows() > 6 {
		t.Errorf("Q1 groups = %d, want 3..6", q1.NumRows())
	}
	sumQty := q1.MustCol("sum_qty").(*colstore.Float64s).V
	avgQty := q1.MustCol("avg_qty").(*colstore.Float64s).V
	counts := q1.MustCol("count_order").(*colstore.Int64s).V
	for i := range sumQty {
		want := sumQty[i] / float64(counts[i])
		if math.Abs(avgQty[i]-want) > 1e-6 {
			t.Errorf("Q1 row %d: avg_qty %g inconsistent with sum/count %g", i, avgQty[i], want)
		}
	}

	// Q4: at most 5 priorities, sorted ascending.
	q4 := get(4)
	if q4.NumRows() > 5 {
		t.Errorf("Q4 rows = %d, want <= 5", q4.NumRows())
	}
	prios := q4.MustCol("o_orderpriority").(*colstore.Strings)
	for i := 1; i < q4.NumRows(); i++ {
		if prios.Value(i-1) >= prios.Value(i) {
			t.Errorf("Q4 not sorted by priority")
		}
	}

	// Q5: at most 5 Asian nations, revenue sorted descending, positive.
	q5 := get(5)
	if q5.NumRows() > 5 {
		t.Errorf("Q5 rows = %d, want <= 5 (ASIA nations)", q5.NumRows())
	}
	rev := q5.MustCol("revenue").(*colstore.Float64s).V
	for i := range rev {
		if rev[i] <= 0 {
			t.Errorf("Q5 revenue[%d] = %g, want positive", i, rev[i])
		}
		if i > 0 && rev[i-1] < rev[i] {
			t.Errorf("Q5 not sorted by revenue desc")
		}
	}

	// Q6: single positive scalar.
	q6 := get(6)
	if q6.NumRows() != 1 || q6.MustCol("revenue").(*colstore.Float64s).V[0] <= 0 {
		t.Error("Q6 should return one positive revenue value")
	}

	// Q12: exactly the two requested ship modes, high+low = total rows.
	q12 := get(12)
	if q12.NumRows() > 2 {
		t.Errorf("Q12 rows = %d, want <= 2", q12.NumRows())
	}
	modes := q12.MustCol("l_shipmode").(*colstore.Strings)
	for i := 0; i < q12.NumRows(); i++ {
		if v := modes.Value(i); v != "MAIL" && v != "SHIP" {
			t.Errorf("Q12 unexpected mode %q", v)
		}
	}

	// Q13: histogram counts sum to the customer count.
	q13 := get(13)
	dist := q13.MustCol("custdist").(*colstore.Int64s).V
	var total int64
	for _, v := range dist {
		total += v
	}
	customers := int64(sharedData.Tables["customer"].NumRows())
	if total != customers {
		t.Errorf("Q13 histogram sums to %d, want %d customers", total, customers)
	}

	// Q14: a percentage within (0, 100).
	q14 := get(14)
	pct := q14.MustCol("promo_revenue").(*colstore.Float64s).V[0]
	if pct <= 0 || pct >= 100 {
		t.Errorf("Q14 promo share = %g, want in (0, 100)", pct)
	}

	// Q22: at most 7 country codes, each with positive balances.
	q22 := get(22)
	if q22.NumRows() > 7 {
		t.Errorf("Q22 rows = %d, want <= 7", q22.NumRows())
	}
	nc := q22.MustCol("numcust").(*colstore.Int64s).V
	tb := q22.MustCol("totacctbal").(*colstore.Float64s).V
	for i := range nc {
		if nc[i] <= 0 || tb[i] <= 0 {
			t.Errorf("Q22 row %d: numcust %d totacctbal %g", i, nc[i], tb[i])
		}
	}

	// Q16: supplier counts never exceed 4 (each part has 4 suppliers).
	q16 := get(16)
	sc := q16.MustCol("supplier_cnt").(*colstore.Int64s).V
	for i, v := range sc {
		if v < 1 || v > 4 {
			t.Errorf("Q16 row %d: supplier_cnt %d outside [1, 4]", i, v)
		}
	}
}

func TestGeneratorDistributions(t *testing.T) {
	d := Generate(Config{SF: 0.1, Seed: 11})
	li := d.Tables["lineitem"]
	n := li.NumRows()

	// Discount uniform on {0.00..0.10}: mean ~0.05.
	disc := colF(li, "l_discount")
	var sum float64
	for _, v := range disc {
		sum += v
	}
	if mean := sum / float64(n); mean < 0.045 || mean > 0.055 {
		t.Errorf("discount mean = %g, want ~0.05", mean)
	}

	// Ship dates within the spec window.
	ship := colD(li, "l_shipdate")
	lo := StartDate
	hi := colstore.MustDate("1998-12-31")
	for _, v := range ship {
		if v < lo || v > hi {
			t.Fatalf("shipdate %s outside TPC-H range", colstore.FormatDate(v))
		}
	}

	// Market segments roughly uniform over the 5 values.
	seg := d.Tables["customer"].MustCol("c_mktsegment").(*colstore.Strings)
	hist := map[string]int{}
	for i := 0; i < seg.Len(); i++ {
		hist[seg.Value(i)]++
	}
	if len(hist) != 5 {
		t.Fatalf("got %d segments, want 5", len(hist))
	}
	expect := float64(seg.Len()) / 5
	for s, c := range hist {
		if float64(c) < 0.8*expect || float64(c) > 1.2*expect {
			t.Errorf("segment %s count %d deviates from uniform (%g)", s, c, expect)
		}
	}

	// Roughly one third of customers have no orders (custkey % 3 == 0).
	ordered := map[int64]bool{}
	for _, ck := range colI(d.Tables["orders"], "o_custkey") {
		ordered[ck] = true
	}
	custs := d.Tables["customer"].NumRows()
	frac := float64(len(ordered)) / float64(custs)
	if frac < 0.55 || frac > 0.68 {
		t.Errorf("fraction of customers with orders = %g, want ~2/3", frac)
	}

	// Ship modes cover all 7 values.
	mode := li.MustCol("l_shipmode").(*colstore.Strings)
	if mode.Dict.Len() != 7 {
		t.Errorf("ship modes = %d, want 7", mode.Dict.Len())
	}
}

func TestScalingProportionality(t *testing.T) {
	small := Generate(Config{SF: 0.01, Seed: 3})
	big := Generate(Config{SF: 0.02, Seed: 3})
	for _, name := range []string{"supplier", "part", "partsupp", "customer", "orders"} {
		s := small.Tables[name].NumRows()
		b := big.Tables[name].NumRows()
		if b != 2*s {
			t.Errorf("%s: SF 0.02 has %d rows, want exactly 2x %d", name, b, s)
		}
	}
	ls, lb := small.Tables["lineitem"].NumRows(), big.Tables["lineitem"].NumRows()
	if ratio := float64(lb) / float64(ls); ratio < 1.9 || ratio > 2.1 {
		t.Errorf("lineitem scaling ratio = %g, want ~2", ratio)
	}
}

func TestDistQueryRegistry(t *testing.T) {
	for _, q := range RepresentativeQueries {
		dq, err := DistQueryFor(q)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if dq.Num != q || dq.Partial == nil {
			t.Errorf("Q%d: malformed DistQuery", q)
		}
		if q == 13 {
			if !dq.SingleNode {
				t.Error("Q13 should be single-node")
			}
		} else if dq.Merge == nil {
			t.Errorf("Q%d: missing merge plan", q)
		}
	}
	if _, err := DistQueryFor(2); err == nil {
		t.Error("Q2 should have no distributed form")
	}
	// Single-node merge validation.
	dq, _ := DistQueryFor(13)
	if _, _, err := dq.MergePartials(nil, 1); err == nil {
		t.Error("Q13 MergePartials with 0 partials should error")
	}
}
