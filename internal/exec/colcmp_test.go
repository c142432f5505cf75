package exec

import (
	"strings"
	"testing"

	"wimpi/internal/colstore"
)

func colcmpTable() *colstore.Table {
	return colstore.MustNewTable("t", colstore.Schema{
		{Name: "a", Type: colstore.Int64},
		{Name: "b", Type: colstore.Int64},
		{Name: "x", Type: colstore.Float64},
		{Name: "y", Type: colstore.Float64},
	}, []colstore.Column{
		&colstore.Int64s{V: []int64{1, 2, 3, 4}},
		&colstore.Int64s{V: []int64{2, 2, 2, 2}},
		&colstore.Float64s{V: []float64{1.5, 2.0, 2.5, 3.0}},
		&colstore.Float64s{V: []float64{2.0, 2.0, 2.0, 2.0}},
	})
}

func TestSelColCmpKernels(t *testing.T) {
	tbl := colcmpTable()
	var ctr Counters
	a := tbl.MustCol("a").(*colstore.Int64s).V
	b := tbl.MustCol("b").(*colstore.Int64s).V
	if got := SelColCmp(a, b, Lt, nil, &ctr); !equalSel(got, []int32{0}) {
		t.Errorf("I64 Lt dense = %v", got)
	}
	if got := SelColCmp(a, b, Ge, []int32{0, 2, 3}, &ctr); !equalSel(got, []int32{2, 3}) {
		t.Errorf("I64 Ge sel = %v", got)
	}
	x := tbl.MustCol("x").(*colstore.Float64s).V
	y := tbl.MustCol("y").(*colstore.Float64s).V
	if got := SelColCmp(x, y, Eq, nil, &ctr); !equalSel(got, []int32{1}) {
		t.Errorf("F64 Eq dense = %v", got)
	}
	if got := SelColCmp(x, y, Gt, []int32{0, 1, 2}, &ctr); !equalSel(got, []int32{2}) {
		t.Errorf("F64 Gt sel = %v", got)
	}
}

func TestColCmpPreds(t *testing.T) {
	tbl := colcmpTable()
	var ctr Counters
	pi := ColCmpI{A: "a", B: "b", Op: Le}
	got, err := pi.Sel(tbl, nil, &ctr)
	if err != nil || !equalSel(got, []int32{0, 1}) {
		t.Errorf("ColCmpI = %v, %v", got, err)
	}
	pf := ColCmpF{A: "x", B: "y", Op: Ne}
	got, err = pf.Sel(tbl, nil, &ctr)
	if err != nil || !equalSel(got, []int32{0, 2, 3}) {
		t.Errorf("ColCmpF = %v, %v", got, err)
	}
	// Type and name errors.
	for _, p := range []Pred{
		ColCmpI{A: "x", B: "b", Op: Eq},
		ColCmpI{A: "a", B: "y", Op: Eq},
		ColCmpI{A: "zz", B: "b", Op: Eq},
		ColCmpI{A: "a", B: "zz", Op: Eq},
		ColCmpF{A: "a", B: "y", Op: Eq},
		ColCmpF{A: "x", B: "b", Op: Eq},
		ColCmpF{A: "zz", B: "y", Op: Eq},
		ColCmpF{A: "x", B: "zz", Op: Eq},
	} {
		if _, err := p.Sel(tbl, nil, &ctr); err == nil {
			t.Errorf("%v should error", p)
		}
	}
}

func TestPredStrings(t *testing.T) {
	preds := []Pred{
		CmpI{Column: "a", Op: Lt, V: 5},
		CmpF{Column: "x", Op: Ge, V: 1.5},
		CmpD{Column: "d", Op: Le, V: 100},
		DateRange{Column: "d", Lo: 0, Hi: 10},
		FloatRange{Column: "x", Lo: 1, Hi: 2},
		StrEq{Column: "s", V: "v"},
		StrEq{Column: "s", V: "v", Negate: true},
		StrIn{Column: "s", Vals: []string{"a", "b"}},
		Like{Column: "s", Pattern: "%x%"},
		Like{Column: "s", Pattern: "%x%", Negate: true},
		ColCmpD{A: "d1", B: "d2", Op: Lt},
		ColCmpI{A: "a", B: "b", Op: Eq},
		ColCmpF{A: "x", B: "y", Op: Eq},
		AndOf(CmpI{Column: "a", Op: Eq, V: 1}, CmpI{Column: "b", Op: Eq, V: 2}),
		OrOf(CmpI{Column: "a", Op: Eq, V: 1}, CmpI{Column: "b", Op: Eq, V: 2}),
		TruePred{},
	}
	for _, p := range preds {
		if s := p.String(); strings.TrimSpace(s) == "" {
			t.Errorf("%T has empty String()", p)
		}
	}
	if s := (YearExpr{Arg: Col{Name: "d"}}).String(); !strings.Contains(s, "year") {
		t.Errorf("YearExpr.String = %q", s)
	}
	if s := (CaseWhenF{Pred: TruePred{}, Then: ConstF{V: 1}, Else: ConstF{V: 0}}).String(); s == "" {
		t.Error("CaseWhenF.String empty")
	}
}

func TestJoinTableSingleRowAPI(t *testing.T) {
	var ctr Counters
	jt := BuildJoinTable([]int64{7, 7, 9}, &ctr)
	first := jt.Lookup(7)
	if first < 0 {
		t.Fatal("Lookup(7) missed")
	}
	// Chain covers both rows with key 7.
	seen := map[int32]bool{first: true}
	for n := jt.Next(first); n >= 0; n = jt.Next(n) {
		seen[n] = true
	}
	if len(seen) != 2 {
		t.Errorf("chain for key 7 has %d rows, want 2", len(seen))
	}
	if jt.Lookup(8) >= 0 {
		t.Error("Lookup(8) should miss")
	}
	if jt.CountMatches(7) != 2 || jt.CountMatches(9) != 1 || jt.CountMatches(8) != 0 {
		t.Error("CountMatches wrong")
	}
}

func TestObserveLiveBytesRaises(t *testing.T) {
	var c Counters
	c.ObserveLiveBytes(10)
	if c.PeakLiveBytes != 10 {
		t.Error("ObserveLiveBytes did not set")
	}
	c.ObserveLiveBytes(5)
	if c.PeakLiveBytes != 10 {
		t.Error("ObserveLiveBytes lowered")
	}
}
