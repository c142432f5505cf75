package exec

import (
	"testing"

	"wimpi/internal/colstore"
)

func predTable() *colstore.Table {
	schema := colstore.Schema{
		{Name: "qty", Type: colstore.Int64},
		{Name: "price", Type: colstore.Float64},
		{Name: "ship", Type: colstore.Date},
		{Name: "commit", Type: colstore.Date},
		{Name: "mode", Type: colstore.String},
		{Name: "flag", Type: colstore.Bool},
	}
	b := colstore.NewTableBuilder("t", schema)
	rows := []struct {
		qty    int64
		price  float64
		ship   string
		commit string
		mode   string
		flag   bool
	}{
		{5, 10.5, "1994-01-05", "1994-01-10", "AIR", true},
		{20, 99.0, "1994-06-01", "1994-05-20", "MAIL", false},
		{35, 50.0, "1995-01-01", "1995-02-01", "SHIP", true},
		{50, 75.5, "1994-03-15", "1994-03-15", "AIR REG", false},
		{12, 33.3, "1994-12-31", "1995-01-05", "TRUCK", true},
	}
	for _, r := range rows {
		b.Int(0, r.qty)
		b.Float(1, r.price)
		b.Date(2, colstore.MustDate(r.ship))
		b.Date(3, colstore.MustDate(r.commit))
		b.Str(4, r.mode)
		b.Bool(5, r.flag)
		b.EndRow()
	}
	return b.Build()
}

func runPred(t *testing.T, p Pred, want []int32) {
	t.Helper()
	var ctr Counters
	got, err := p.Sel(predTable(), nil, &ctr)
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
	if !equalSel(got, want) {
		t.Errorf("%s = %v, want %v", p, got, want)
	}
}

func TestPredicates(t *testing.T) {
	runPred(t, CmpI{Column: "qty", Op: Lt, V: 20}, []int32{0, 4})
	runPred(t, CmpF{Column: "price", Op: Ge, V: 75}, []int32{1, 3})
	runPred(t, CmpD{Column: "ship", Op: Ge, V: colstore.MustDate("1994-12-31")}, []int32{2, 4})
	runPred(t, DateRange{Column: "ship", Lo: colstore.MustDate("1994-01-01"), Hi: colstore.MustDate("1994-07-01")}, []int32{0, 1, 3})
	runPred(t, FloatRange{Column: "price", Lo: 33.3, Hi: 75.5}, []int32{2, 3, 4})
	runPred(t, StrEq{Column: "mode", V: "AIR"}, []int32{0})
	runPred(t, StrEq{Column: "mode", V: "AIR", Negate: true}, []int32{1, 2, 3, 4})
	runPred(t, StrIn{Column: "mode", Vals: []string{"AIR", "AIR REG"}}, []int32{0, 3})
	runPred(t, Like{Column: "mode", Pattern: "AIR%"}, []int32{0, 3})
	runPred(t, Like{Column: "mode", Pattern: "AIR%", Negate: true}, []int32{1, 2, 4})
	runPred(t, ColCmpD{A: "ship", B: "commit", Op: Lt}, []int32{0, 2, 4})
	runPred(t, AndOf(
		CmpI{Column: "qty", Op: Ge, V: 12},
		CmpF{Column: "price", Op: Lt, V: 60},
	), []int32{2, 4})
	runPred(t, OrOf(
		StrEq{Column: "mode", V: "MAIL"},
		CmpI{Column: "qty", Op: Eq, V: 5},
	), []int32{0, 1})
	runPred(t, TruePred{}, []int32{0, 1, 2, 3, 4})
}

func TestAndShortCircuitAndOrDedup(t *testing.T) {
	var ctr Counters
	tbl := predTable()
	// First conjunct empty: And must stop early and return empty.
	p := AndOf(CmpI{Column: "qty", Op: Gt, V: 1000}, CmpF{Column: "price", Op: Gt, V: 0})
	sel, err := p.Sel(tbl, nil, &ctr)
	if err != nil || len(sel) != 0 {
		t.Fatalf("short-circuit And = %v, %v", sel, err)
	}
	// Overlapping Or branches must not duplicate rows.
	o := OrOf(CmpI{Column: "qty", Op: Ge, V: 12}, CmpF{Column: "price", Op: Gt, V: 0})
	sel, err = o.Sel(tbl, nil, &ctr)
	if err != nil || len(sel) != 5 {
		t.Fatalf("Or dedup = %v, %v", sel, err)
	}
}

func TestPredTypeErrors(t *testing.T) {
	var ctr Counters
	tbl := predTable()
	bads := []Pred{
		CmpI{Column: "price", Op: Eq, V: 1},
		CmpF{Column: "qty", Op: Eq, V: 1},
		CmpD{Column: "qty", Op: Eq, V: 1},
		DateRange{Column: "mode"},
		FloatRange{Column: "ship"},
		StrEq{Column: "qty", V: "x"},
		StrIn{Column: "flag", Vals: []string{"x"}},
		Like{Column: "price", Pattern: "%"},
		ColCmpD{A: "qty", B: "ship", Op: Lt},
		CmpI{Column: "nope", Op: Eq, V: 1},
	}
	for _, p := range bads {
		if _, err := p.Sel(tbl, nil, &ctr); err == nil {
			t.Errorf("%s: want error", p)
		}
	}
}

func TestExprEval(t *testing.T) {
	tbl := predTable()
	var ctr Counters
	// price * (1 - 0.1) + qty
	e := Add(Mul(Col{Name: "price"}, Sub(ConstF{V: 1}, ConstF{V: 0.1})), Col{Name: "qty"})
	c, err := e.Eval(tbl, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	v := c.(*colstore.Float64s).V
	want := 10.5*0.9 + 5
	if diff := v[0] - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("expr[0] = %v, want %v", v[0], want)
	}
	if e.String() == "" {
		t.Error("expr String empty")
	}

	y, err := YearExpr{Arg: Col{Name: "ship"}}.Eval(tbl, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	yv := y.(*colstore.Int64s).V
	if yv[0] != 1994 || yv[2] != 1995 {
		t.Errorf("year = %v", yv)
	}
	if _, err := (YearExpr{Arg: Col{Name: "qty"}}).Eval(tbl, &ctr); err == nil {
		t.Error("YearExpr on int should error")
	}

	cw := CaseWhenF{
		Pred: StrEq{Column: "mode", V: "AIR"},
		Then: Col{Name: "price"},
		Else: ConstF{V: 0},
	}
	cc, err := cw.Eval(tbl, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	cv := cc.(*colstore.Float64s).V
	if cv[0] != 10.5 || cv[1] != 0 || cv[3] != 0 {
		t.Errorf("case = %v", cv)
	}
	if cw.String() == "" {
		t.Error("case String empty")
	}

	// Division and integer promotion.
	d := Div(Col{Name: "qty"}, ConstF{V: 2})
	dc, err := d.Eval(tbl, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if dc.(*colstore.Float64s).V[0] != 2.5 {
		t.Errorf("div = %v", dc.(*colstore.Float64s).V[0])
	}

	// Type errors propagate.
	if _, err := Mul(Col{Name: "mode"}, ConstF{V: 1}).Eval(tbl, &ctr); err != nil {
	} else {
		t.Error("Mul on string should error")
	}
	if _, err := (Col{Name: "missing"}).Eval(tbl, &ctr); err == nil {
		t.Error("missing column should error")
	}
}

func TestAsFloat64(t *testing.T) {
	var ctr Counters
	f, err := AsFloat64(&colstore.Int64s{V: []int64{1, 2}}, &ctr)
	if err != nil || f[1] != 2 {
		t.Errorf("AsFloat64 int: %v %v", f, err)
	}
	orig := &colstore.Float64s{V: []float64{3.5}}
	f, err = AsFloat64(orig, &ctr)
	if err != nil || &f[0] != &orig.V[0] {
		t.Error("AsFloat64 float should alias")
	}
	if _, err := AsFloat64(&colstore.Bools{V: []bool{true}}, &ctr); err == nil {
		t.Error("AsFloat64 bool should error")
	}
}

func TestCmpOpStrings(t *testing.T) {
	ops := map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q, want %q", op, op.String(), want)
		}
	}
	for op, want := range map[ArithOp]string{AddOp: "+", SubOp: "-", MulOp: "*", DivOp: "/"} {
		if op.String() != want {
			t.Errorf("arith %v = %q", op, op.String())
		}
	}
}

func sameSel(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInIPredAcrossEncodings(t *testing.T) {
	vals := []int64{3, 3, 3, 7, 7, 2, 9, 2, 2, 2}
	mk := func(c colstore.Column) *colstore.Table {
		return colstore.MustNewTable("t", colstore.Schema{{Name: "k", Type: colstore.Int64}}, []colstore.Column{c})
	}
	dense := &colstore.Int64s{V: vals}
	rle := colstore.CompressInt64(dense)
	cases := []struct {
		list []int64
		want []int32
	}{
		{[]int64{3, 9}, []int32{0, 1, 2, 6}},
		{[]int64{2}, []int32{5, 7, 8, 9}},
		{[]int64{100, -5}, nil}, // no row matches
		{[]int64{7, 1 << 50}, []int32{3, 4}},
		{nil, nil},
	}
	for _, tc := range cases {
		for _, col := range []colstore.Column{dense, rle} {
			var c Counters
			got, err := InI{Column: "k", Vals: tc.list}.Sel(mk(col), nil, &c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSel(got, tc.want) {
				t.Fatalf("%T in %v: %v, want %v", col, tc.list, got, tc.want)
			}
			// Selective path agrees with intersecting the dense answer.
			in := []int32{1, 3, 6, 8}
			gotSel, err := InI{Column: "k", Vals: tc.list}.Sel(mk(col), in, &c)
			if err != nil {
				t.Fatal(err)
			}
			var wantSel []int32
			for _, i := range in {
				for _, w := range tc.want {
					if i == w {
						wantSel = append(wantSel, i)
					}
				}
			}
			if !sameSel(gotSel, wantSel) {
				t.Fatalf("%T in %v (sel): %v, want %v", col, tc.list, gotSel, wantSel)
			}
		}
	}
}
