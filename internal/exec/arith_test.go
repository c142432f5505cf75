package exec

import (
	"fmt"
	"math"
	"testing"

	"wimpi/internal/colstore"
)

// TestArithConstantOperands: a constant operand folded into the loop
// must give the bits and the counters of the materialised ConstF column
// it replaces, for every operator, on either side, over special values
// and an int64 operand.
func TestArithConstantOperands(t *testing.T) {
	negZero := math.Copysign(0, -1)
	x := []float64{1.5, -2, 0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1e308, 3}
	xi := []int64{1, -2, 0, 7, math.MaxInt32, -1 << 40, 3, 5, 9}
	tbl := colstore.MustNewTable("t", colstore.Schema{
		{Name: "x", Type: colstore.Float64}, {Name: "xi", Type: colstore.Int64},
	}, []colstore.Column{&colstore.Float64s{V: x}, &colstore.Int64s{V: xi}})

	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, 2.5} {
		for _, col := range []string{"x", "xi"} {
			for _, op := range []ArithOp{AddOp, SubOp, MulOp, DivOp} {
				for _, constLeft := range []bool{true, false} {
					label := fmt.Sprintf("%s %s %g (const left %v)", col, op, k, constLeft)
					var ctr Counters
					got := evalArith(t, label, tbl, op, col, ConstF{V: k}, constLeft, &ctr)

					// The reference materialises the constant column.
					var want Counters
					kc, err := ConstF{V: k}.Eval(tbl, &want)
					if err != nil {
						t.Fatal(err)
					}
					ref := colstore.MustNewTable("ref", append(colstore.Schema{{Name: "k", Type: colstore.Float64}}, tbl.Schema...),
						append([]colstore.Column{kc}, tbl.Cols...))
					wantV := evalArith(t, label, ref, op, col, Col{Name: "k"}, constLeft, &want)

					for i := range wantV {
						if math.Float64bits(got[i]) != math.Float64bits(wantV[i]) {
							t.Fatalf("%s row %d: %v, want %v", label, i, got[i], wantV[i])
						}
					}
					if ctr != want {
						t.Fatalf("%s: counters %+v, want %+v", label, ctr, want)
					}
				}
			}
		}
	}

	// Two constants, materialised by the same rule.
	var ctr, want Counters
	c, err := Sub(ConstF{V: 1}, ConstF{V: negZero}).Eval(tbl, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if v := c.(*colstore.Float64s).V; len(v) != tbl.NumRows() || v[0] != 1 {
		t.Fatalf("1 - (-0) = %v", v)
	}
	want.SeqBytes = 3 * 8 * int64(tbl.NumRows())
	want.FloatOps = int64(tbl.NumRows())
	if ctr != want {
		t.Fatalf("1 - (-0): counters %+v, want %+v", ctr, want)
	}
	t.Run("q1 chain", arithChainLeavesInputs)
}

func evalArith(t *testing.T, label string, tbl *colstore.Table, op ArithOp, col string, k Expr, kLeft bool, ctr *Counters) []float64 {
	t.Helper()
	e := Arith{Op: op, L: Col{Name: col}, R: k}
	if kLeft {
		e.L, e.R = k, Col{Name: col}
	}
	c, err := e.Eval(tbl, ctr)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return c.(*colstore.Float64s).V
}

// arithChainLeavesInputs: a Q1-shaped chain reuses its inner results'
// buffers, never the columns it reads.
func arithChainLeavesInputs(t *testing.T) {
	p := []float64{100, 250.5, 3, math.NaN()}
	d := []float64{0.05, 0, 0.1, 0.02}
	tx := []float64{0.08, 0.01, 0, 0.04}
	tbl := colstore.MustNewTable("lineitem", colstore.Schema{
		{Name: "p", Type: colstore.Float64}, {Name: "d", Type: colstore.Float64}, {Name: "t", Type: colstore.Float64},
	}, []colstore.Column{
		&colstore.Float64s{V: append([]float64(nil), p...)},
		&colstore.Float64s{V: append([]float64(nil), d...)},
		&colstore.Float64s{V: append([]float64(nil), tx...)},
	})
	e := Mul(Mul(Col{Name: "p"}, Sub(ConstF{V: 1}, Col{Name: "d"})), Add(ConstF{V: 1}, Col{Name: "t"}))
	var ctr Counters
	c, err := e.Eval(tbl, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	got := c.(*colstore.Float64s).V
	for i := range p {
		want := p[i] * (1 - d[i]) * (1 + tx[i])
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("row %d = %v, want %v", i, got[i], want)
		}
	}
	for name, orig := range map[string][]float64{"p": p, "d": d, "t": tx} {
		v := tbl.MustCol(name).(*colstore.Float64s).V
		for i := range orig {
			if math.Float64bits(v[i]) != math.Float64bits(orig[i]) {
				t.Errorf("input %s row %d overwritten: %v, was %v", name, i, v[i], orig[i])
			}
		}
	}
	// Two constants streamed, four operators' outputs written.
	if n := int64(len(p)); ctr.SeqBytes != 6*8*n || ctr.FloatOps != 4*n {
		t.Errorf("counters %+v, want SeqBytes %d FloatOps %d", ctr, 6*8*n, 4*n)
	}
}

// TestEvalFloatsMatchesEval: evaluating into a Floats gives Eval's bits
// (then AsFloat64's) and its counters, special values and int64
// promotion included. Every result stays intact while later
// evaluations draw from the same Floats until its Reset, and a reset
// Floats lends its storage again, so a warm evaluation allocates
// nothing.
func TestEvalFloatsMatchesEval(t *testing.T) {
	negZero := math.Copysign(0, -1)
	x := []float64{1.5, -2, 0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1e308, 3, -0.5, 7}
	y := []float64{negZero, math.Inf(-1), 0, 2, 1, math.NaN(), math.Inf(1), 1e308, -3, 0.25, negZero}
	xi := []int64{1, -2, 0, 7, math.MaxInt32, -1 << 40, 3, 5, 9, 0, -1}
	tbl := colstore.MustNewTable("t", colstore.Schema{
		{Name: "x", Type: colstore.Float64}, {Name: "y", Type: colstore.Float64}, {Name: "xi", Type: colstore.Int64},
	}, []colstore.Column{&colstore.Float64s{V: x}, &colstore.Float64s{V: y}, &colstore.Int64s{V: xi}})
	cx, cy, ci := Col{Name: "x"}, Col{Name: "y"}, Col{Name: "xi"}
	exprs := []Expr{
		cx, ci,
		Add(cx, cy), Div(cy, cx), Sub(ci, cx),
		Mul(ConstF{V: negZero}, cy), Div(cx, ConstF{V: math.Inf(1)}), Add(ConstF{V: math.NaN()}, ci),
		Mul(Mul(cx, Sub(ConstF{V: 1}, cy)), Add(ConstF{V: 1}, ci)),
		Div(Sub(cx, cy), Add(ci, ConstF{V: negZero})),
		Sub(ConstF{V: 2}, Mul(ConstF{V: 3}, ConstF{V: -1})),
	}
	want := make([][]float64, len(exprs))
	wantCtr := make([]Counters, len(exprs))
	for i, e := range exprs {
		c, err := e.Eval(tbl, &wantCtr[i])
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = AsFloat64(c, &wantCtr[i]); err != nil {
			t.Fatal(err)
		}
	}
	var fl Floats
	for round := range 2 {
		fl.Reset()
		got := make([][]float64, len(exprs))
		for i, e := range exprs {
			var ctr Counters
			v, err := EvalFloats(e, tbl, &fl, &ctr)
			if err != nil {
				t.Fatal(err)
			}
			if ctr != wantCtr[i] {
				t.Fatalf("round %d, %s: counters %+v, want %+v", round, e, ctr, wantCtr[i])
			}
			got[i] = v
		}
		// Checked only after every evaluation: a later one must not
		// have written into an earlier result.
		for i, e := range exprs {
			for r := range want[i] {
				if math.Float64bits(got[i][r]) != math.Float64bits(want[i][r]) {
					t.Fatalf("round %d, %s row %d: %v, want %v", round, e, r, got[i][r], want[i][r])
				}
			}
		}
	}
	var ctr Counters
	if allocs := testing.AllocsPerRun(10, func() {
		fl.Reset()
		for _, e := range exprs {
			if _, err := EvalFloats(e, tbl, &fl, &ctr); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("a warm evaluation allocates %v times, want 0", allocs)
	}
}
