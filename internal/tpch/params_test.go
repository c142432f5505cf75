package tpch

import (
	"context"
	"fmt"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
)

func TestDefaultParamsMatchValidationValues(t *testing.T) {
	p := DefaultParams()
	if p.Q1Delta != 90 || p.Q3Segment != "BUILDING" || p.Q5Region != "ASIA" ||
		p.Q6Discount != 0.06 || p.Q13Word1 != "special" || p.Q19Brand2 != "Brand#23" {
		t.Errorf("defaults diverge from the spec validation values: %+v", p)
	}
	// QueryP with defaults must equal Query exactly.
	db, ref := sharedFixture(t)
	for _, q := range RepresentativeQueries {
		node, err := QueryP(q, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.RunQuery(context.Background(), node, engine.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		compareRows(t, q, tableRows(res.Table), want)
	}
}

func TestRandomParamsWithinSpecRanges(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		p := RandomParams(seed)
		if p.Q1Delta < 60 || p.Q1Delta > 120 {
			t.Errorf("seed %d: Q1Delta %d", seed, p.Q1Delta)
		}
		if p.Q3Date < colstore.MustDate("1995-03-01") || p.Q3Date > colstore.MustDate("1995-03-31") {
			t.Errorf("seed %d: Q3Date %s", seed, colstore.FormatDate(p.Q3Date))
		}
		if p.Q4Date < colstore.MustDate("1993-01-01") || p.Q4Date > colstore.MustDate("1997-10-01") {
			t.Errorf("seed %d: Q4Date %s", seed, colstore.FormatDate(p.Q4Date))
		}
		if _, _, d := colstore.CivilOf(p.Q4Date); d != 1 {
			t.Errorf("seed %d: Q4Date not a month start", seed)
		}
		if p.Q6Discount < 0.02 || p.Q6Discount > 0.09 {
			t.Errorf("seed %d: Q6Discount %g", seed, p.Q6Discount)
		}
		if p.Q6Quantity != 24 && p.Q6Quantity != 25 {
			t.Errorf("seed %d: Q6Quantity %g", seed, p.Q6Quantity)
		}
		if p.Q19Quantity1 < 1 || p.Q19Quantity1 > 10 ||
			p.Q19Quantity2 < 10 || p.Q19Quantity2 > 20 ||
			p.Q19Quantity3 < 20 || p.Q19Quantity3 > 30 {
			t.Errorf("seed %d: Q19 quantities out of range: %+v", seed, p)
		}
		found1, found2 := false, false
		for _, w := range q13Words1 {
			if p.Q13Word1 == w {
				found1 = true
			}
		}
		for _, w := range q13Words2 {
			if p.Q13Word2 == w {
				found2 = true
			}
		}
		if !found1 || !found2 {
			t.Errorf("seed %d: Q13 words %q %q not from spec lists", seed, p.Q13Word1, p.Q13Word2)
		}
	}
	// Determinism and variety.
	if RandomParams(1) != RandomParams(1) {
		t.Error("RandomParams not deterministic")
	}
	if RandomParams(1) == RandomParams(2) {
		t.Error("different seeds produced identical parameters")
	}
}

// TestParameterizedQueriesMatchReference is the qgen-style correctness
// sweep: several random parameter sets through all eight representative
// queries, engine vs. independent reference.
func TestParameterizedQueriesMatchReference(t *testing.T) {
	db, ref := sharedFixture(t)
	for seed := uint64(1); seed <= 3; seed++ {
		p := RandomParams(seed)
		for _, q := range RepresentativeQueries {
			q := q
			t.Run(fmt.Sprintf("seed%d/Q%d", seed, q), func(t *testing.T) {
				node, err := QueryP(q, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.RunQuery(context.Background(), node, engine.QueryOpts{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.QueryP(q, p)
				if err != nil {
					t.Fatal(err)
				}
				compareRows(t, q, tableRows(res.Table), want)
			})
		}
	}
}

func TestQueryPFallsBackForUnparameterized(t *testing.T) {
	db, ref := sharedFixture(t)
	node, err := QueryP(11, RandomParams(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.RunQuery(context.Background(), node, engine.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.QueryP(11, RandomParams(5))
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, 11, tableRows(res.Table), want)
	if _, err := QueryP(99, DefaultParams()); err == nil {
		t.Error("QueryP(99) should error")
	}
	if _, err := (&Reference{}).QueryP(99, DefaultParams()); err == nil {
		t.Error("reference QueryP(99) should error")
	}
}
