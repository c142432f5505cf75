package sql_test

import (
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/sql"
)

// TestPredSelMatchesGatheredSample: the planner estimates a predicate's
// selectivity by selecting from the base table with its strided sample
// as the input rows. Each estimate must equal exactly the one the same
// predicate gives over a gathered copy of the sample.
func TestPredSelMatchesGatheredSample(t *testing.T) {
	db := engine.NewDB(engine.Config{Workers: 2})
	fixture().RegisterAll(db)
	var q22 []exec.Pred
	for _, cc := range []string{"13", "31", "23", "29", "30", "18", "17"} {
		q22 = append(q22, exec.Like{Column: "c_phone", Pattern: cc + "%"})
	}
	for _, tc := range []struct {
		name, table string
		p           exec.Pred
	}{
		{"CmpI", "part", exec.CmpI{Column: "p_size", Op: exec.Le, V: 15}},
		{"DateRange", "lineitem", exec.DateRange{Column: "l_shipdate", Lo: colstore.MustDate("1994-01-01"), Hi: colstore.MustDate("1995-01-01")}},
		{"StrIn", "lineitem", exec.StrIn{Column: "l_shipmode", Vals: []string{"MAIL", "SHIP"}}},
		{"Like", "part", exec.Like{Column: "p_name", Pattern: "%green%"}},
		{"NotLike", "orders", exec.Like{Column: "o_comment", Pattern: "%special%requests%", Negate: true}},
		{"ColCmpD", "lineitem", exec.ColCmpD{A: "l_commitdate", B: "l_receiptdate", Op: exec.Lt}},
		{"Or", "customer", exec.OrOf(q22...)},
		{"And", "lineitem", exec.AndOf(
			exec.DateRange{Column: "l_receiptdate", Lo: colstore.MustDate("1994-01-01"), Hi: colstore.MustDate("1995-01-01")},
			exec.ColCmpD{A: "l_shipdate", B: "l_commitdate", Op: exec.Lt},
			exec.StrIn{Column: "l_shipmode", Vals: []string{"MAIL", "SHIP"}},
		)},
	} {
		tbl, err := db.Table(tc.table)
		if err != nil {
			t.Fatal(err)
		}
		rows := tbl.NumRows()
		k := min(rows, sql.StatsSampleRows)
		sample := make([]int32, k)
		for i := range sample {
			sample[i] = int32(i * rows / k)
		}
		hits, err := tc.p.Sel(tbl.Gather(sample), nil, &exec.Counters{})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(len(hits)) / float64(k)
		if got := sql.PredSel(db, tc.table, tc.p); got != want {
			t.Errorf("%s: predSel = %v, gathered sample gives %v", tc.name, got, want)
		}
		if want == 0 || want == 1 {
			t.Errorf("%s: selectivity %v tests nothing", tc.name, want)
		}
	}
}
