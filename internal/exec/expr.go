package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// Expr is a row-parallel expression evaluated over all rows of a table,
// producing a new column. Expressions implement the computed attributes
// of TPC-H queries, e.g. l_extendedprice * (1 - l_discount).
type Expr interface {
	// Eval evaluates the expression over every row of t.
	Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error)
	// String renders the expression for EXPLAIN output.
	String() string
}

// Col references a column of the input table by name.
type Col struct {
	// Name is the referenced column name.
	Name string
}

// Eval implements Expr.
func (e Col) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	return t.ColByName(e.Name)
}

// String implements Expr.
func (e Col) String() string { return e.Name }

// ConstF is a float64 literal.
type ConstF struct {
	// V is the literal value.
	V float64
}

// Eval implements Expr. Materializing the constant column is charged
// like any other expression output (see Arith.Eval).
func (e ConstF) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	v := make([]float64, t.NumRows())
	for i := range v {
		v[i] = e.V
	}
	ctr.SeqBytes += int64(len(v)) * 8
	return &colstore.Float64s{V: v}, nil
}

// String implements Expr.
func (e ConstF) String() string { return fmt.Sprintf("%g", e.V) }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// The arithmetic operators.
const (
	// AddOp is addition.
	AddOp ArithOp = iota
	// SubOp is subtraction.
	SubOp
	// MulOp is multiplication.
	MulOp
	// DivOp is division.
	DivOp
)

// String returns the operator's symbol.
func (op ArithOp) String() string {
	switch op {
	case AddOp:
		return "+"
	case SubOp:
		return "-"
	case MulOp:
		return "*"
	default:
		return "/"
	}
}

// Arith applies a binary arithmetic operator with float64 semantics.
// Integer operands are promoted to float64.
type Arith struct {
	// Op is the operator.
	Op ArithOp
	// L and R are the operands.
	L, R Expr
}

// Add returns l + r.
func Add(l, r Expr) Expr { return Arith{Op: AddOp, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Arith{Op: SubOp, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Arith{Op: MulOp, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return Arith{Op: DivOp, L: l, R: r} }

// arithBlock is the rows of a constant operand Arith materialises.
const arithBlock = 1024

// Eval implements Expr: EvalFloats with fresh vectors.
func (e Arith) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	v, err := e.floats(t, nil, ctr)
	if err != nil {
		return nil, err
	}
	return &colstore.Float64s{V: v}, nil
}

// floats evaluates e over t into vectors from a. A constant operand is
// one block, charged as the column ConstF.Eval streamed; a nested Arith
// hands over its vector for the result. A column operand is never
// written.
func (e Arith) floats(t *colstore.Table, a *Floats, ctr *Counters) ([]float64, error) {
	l, err := e.operand(e.L, t, a, ctr)
	if err != nil {
		return nil, err
	}
	r, err := e.operand(e.R, t, a, ctr)
	if err != nil {
		return nil, err
	}
	var out []float64
	switch {
	case l.fresh:
		out = l.v
	case r.fresh:
		out = r.v
	default:
		out = a.next(t.NumRows())
	}
	for lo := 0; lo < len(out); lo += arithBlock {
		hi := min(lo+arithBlock, len(out))
		e.Op.apply(out[lo:hi], l.rows(lo, hi), r.rows(lo, hi))
	}
	ctr.FloatOps += int64(len(out))
	ctr.SeqBytes += int64(len(out)) * 8
	return out, nil
}

// apply sets out[i] = a[i] op b[i]; out may be a or b.
func (op ArithOp) apply(out, a, b []float64) {
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case AddOp:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case SubOp:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case MulOp:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case DivOp:
		for i := range out {
			out[i] = a[i] / b[i]
		}
	}
}

// arithArg is one evaluated Arith operand: a column's values, or one
// block of a constant. fresh marks values no other expression holds.
type arithArg struct {
	v               []float64
	constant, fresh bool
}

// rows returns the operand's values for rows [lo, hi).
func (a arithArg) rows(lo, hi int) []float64 {
	if a.constant {
		return a.v[:hi-lo]
	}
	return a.v[lo:hi]
}

func (e Arith) operand(x Expr, t *colstore.Table, a *Floats, ctr *Counters) (arithArg, error) {
	switch x := x.(type) {
	case ConstF:
		ctr.SeqBytes += int64(t.NumRows()) * 8
		v := a.next(min(t.NumRows(), arithBlock))
		for i := range v {
			v[i] = x.V
		}
		return arithArg{v: v, constant: true}, nil
	case Arith:
		v, err := x.floats(t, a, ctr)
		return arithArg{v: v, fresh: true}, err
	case CaseWhenF, Col, PrefixExpr, YearExpr:
	}
	c, err := x.Eval(t, ctr)
	if err != nil {
		return arithArg{}, err
	}
	v, err := a.float64s(c, ctr)
	if err != nil {
		return arithArg{}, fmt.Errorf("exec: %s: %w", e, err)
	}
	return arithArg{v: v}, nil
}

// String implements Expr.
func (e Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// YearExpr extracts the calendar year of a date column as int64.
type YearExpr struct {
	// Arg is the date-typed operand.
	Arg Expr
}

// Eval implements Expr.
func (e YearExpr) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	c, err := e.Arg.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	d, ok := c.(*colstore.Dates)
	if !ok {
		return nil, fmt.Errorf("exec: year() needs a date column, got %s", c.Type())
	}
	out := make([]int64, len(d.V))
	for i, v := range d.V {
		out[i] = int64(colstore.YearOf(v))
	}
	ctr.IntOps += int64(len(out)) * 4
	ctr.SeqBytes += int64(len(out)) * 8
	return &colstore.Int64s{V: out}, nil
}

// String implements Expr.
func (e YearExpr) String() string { return fmt.Sprintf("year(%s)", e.Arg) }

// CaseWhenF evaluates to Then where Pred holds and Else elsewhere, with
// float64 result semantics (TPC-H Q8, Q12, Q14).
type CaseWhenF struct {
	// Pred decides which branch each row takes.
	Pred Pred
	// Then and Else are the branch expressions.
	Then, Else Expr
	// bound is Pred bound by BindExpr to the table evaluated, or to a
	// table it is a row slice of; nil selects through Pred.
	bound SelFunc
}

// Eval implements Expr.
func (e CaseWhenF) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	selFn := e.bound
	if selFn == nil {
		selFn = e.Pred.Sel
	}
	sel, err := selFn(t, nil, ctr)
	if err != nil {
		return nil, err
	}
	thenC, err := e.Then.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	elseC, err := e.Else.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	tv, err := AsFloat64(thenC, ctr)
	if err != nil {
		return nil, err
	}
	ev, err := AsFloat64(elseC, ctr)
	if err != nil {
		return nil, err
	}
	out := make([]float64, t.NumRows())
	copy(out, ev)
	for _, i := range sel {
		out[i] = tv[i]
	}
	ctr.FloatOps += int64(len(out))
	ctr.SeqBytes += int64(len(out)) * 8
	return &colstore.Float64s{V: out}, nil
}

// String implements Expr.
func (e CaseWhenF) String() string {
	return fmt.Sprintf("case when <pred> then %s else %s end", e.Then, e.Else)
}

// BindExpr returns e with the predicate of every CaseWhenF in it bound
// to t (Bind). A caller that evaluates e over many row slices of t (the
// morsels of a parallel evaluation) binds first, so that a string
// predicate inside a CASE builds and charges its mask once, not once a
// morsel.
func BindExpr(e Expr, t *colstore.Table, ctr *Counters) (Expr, error) {
	var err error
	switch x := e.(type) {
	case CaseWhenF:
		if x.bound, err = Bind(x.Pred, t, ctr); err != nil {
			return nil, err
		}
		if x.Then, err = BindExpr(x.Then, t, ctr); err != nil {
			return nil, err
		}
		x.Else, err = BindExpr(x.Else, t, ctr)
		return x, err
	case Arith:
		if x.L, err = BindExpr(x.L, t, ctr); err != nil {
			return nil, err
		}
		x.R, err = BindExpr(x.R, t, ctr)
		return x, err
	case YearExpr:
		x.Arg, err = BindExpr(x.Arg, t, ctr)
		return x, err
	case Col, ConstF, PrefixExpr:
	}
	return e, nil
}

// AsInt64 returns an int64 column's values; the result aliases the
// column's storage.
func AsInt64(c colstore.Column) ([]int64, error) {
	v, ok := c.(*colstore.Int64s)
	if !ok {
		return nil, fmt.Errorf("exec: cannot treat %s column as int64", c.Type())
	}
	return v.V, nil
}

// AsFloat64 returns the column's values as a float64 slice, promoting
// int64. The result aliases the column's storage for float columns.
func AsFloat64(c colstore.Column, ctr *Counters) ([]float64, error) {
	return (*Floats)(nil).float64s(c, ctr)
}

// EvalFloats evaluates e over t as float64 values, promoting int64, like
// e.Eval then AsFloat64 and with their charges, but writes every vector
// an Arith tree over Col and ConstF makes — its results, its constant
// blocks, its promoted int64 columns — into a's instead of fresh ones.
// A nil a allocates them.
func EvalFloats(e Expr, t *colstore.Table, a *Floats, ctr *Counters) ([]float64, error) {
	if x, ok := e.(Arith); ok {
		return x.floats(t, a, ctr)
	}
	c, err := e.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	return a.float64s(c, ctr)
}

// Floats lends float64 vectors to EvalFloats, reusing their storage: a
// vector it lent stays valid, and is not lent again, until the next
// Reset. The zero value is ready to use.
type Floats struct {
	bufs [][]float64
	used int
}

// Reset takes back every vector a lent; their storage is reused.
func (a *Floats) Reset() { a.used = 0 }

// next lends a vector of n values, unspecified; a nil a allocates one.
func (a *Floats) next(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.used == len(a.bufs) {
		a.bufs = append(a.bufs, nil)
	}
	if cap(a.bufs[a.used]) < n {
		a.bufs[a.used] = make([]float64, n)
	}
	a.used++
	return a.bufs[a.used-1][:n]
}

// float64s is AsFloat64 promoting int64 into a vector from a.
func (a *Floats) float64s(c colstore.Column, ctr *Counters) ([]float64, error) {
	switch v := c.(type) {
	case *colstore.Float64s:
		return v.V, nil
	case *colstore.Int64s:
		out := a.next(len(v.V))
		for i, x := range v.V {
			out[i] = float64(x)
		}
		ctr.IntOps += int64(len(out))
		return out, nil
	default:
		return nil, fmt.Errorf("exec: cannot treat %s column as float64", c.Type())
	}
}
