package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// Pred is a filter predicate. Sel narrows an input selection vector (nil
// means all rows) to the rows of t that satisfy the predicate, returning
// an ascending selection vector whenever the input is ascending. The
// result is never nil, even when no row matches, because a nil
// selection would mean all rows.
type Pred interface {
	// Sel evaluates the predicate.
	Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error)
	// String renders the predicate for EXPLAIN output.
	String() string
}

// SelFunc is a predicate bound to a table by Bind: it selects from that
// table, or from any row slice of it, with the per-table work done.
type SelFunc func(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error)

// binder is implemented by the predicates with per-table work to do
// before they select: a string predicate's dictionary mask, and And and
// Or, whose children may have one.
type binder interface {
	bind(t *colstore.Table, ctr *Counters) (SelFunc, error)
}

// Bind does p's per-table work over t once, charging it to ctr, and
// returns the selection that remains. A caller that selects from many
// slices of t (the morsels of a parallel scan) binds first, so that a
// string predicate builds and charges its mask once, not once a morsel.
func Bind(p Pred, t *colstore.Table, ctr *Counters) (SelFunc, error) {
	if b, ok := p.(binder); ok {
		return b.bind(t, ctr)
	}
	return p.Sel, nil
}

// selBound is Sel for a binder: bind to t, then select.
func selBound(p binder, t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	sel, err := p.bind(t, ctr)
	if err != nil {
		return nil, err
	}
	return sel(t, in, ctr)
}

// bindAll binds each of ps to t.
func bindAll(ps []Pred, t *colstore.Table, ctr *Counters) ([]SelFunc, error) {
	out := make([]SelFunc, len(ps))
	for i, p := range ps {
		var err error
		if out[i], err = Bind(p, t, ctr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bindMask builds the mask of t's string column name over its dictionary
// and returns the selection through it.
func bindMask(t *colstore.Table, name string, build func(d *colstore.Dict) []bool) (SelFunc, error) {
	sc, err := column[*colstore.Strings](t, name)
	if err != nil {
		return nil, err
	}
	mask := build(sc.Dict)
	return func(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
		sc, err := column[*colstore.Strings](t, name)
		if err != nil {
			return nil, err
		}
		return SelStrMask(sc, mask, in, ctr), nil
	}, nil
}

// CmpI compares an int64 column against a literal.
type CmpI struct {
	// Column names the column; Op and V give the comparison.
	Column string
	Op     CmpOp
	V      int64
}

// Sel implements Pred.
func (p CmpI) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := column[*colstore.Int64s](t, p.Column)
	if err != nil {
		return nil, err
	}
	return SelCmp(c.V, p.Op, p.V, in, ctr), nil
}

// String implements Pred.
func (p CmpI) String() string { return fmt.Sprintf("%s %s %d", p.Column, p.Op, p.V) }

// InI selects rows whose int64 column is any of Vals (SQL IN over
// integers).
type InI struct {
	// Column names the int64 column; Vals is the IN list.
	Column string
	Vals   []int64
}

// Sel implements Pred.
func (p InI) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := column[*colstore.Int64s](t, p.Column)
	if err != nil {
		return nil, err
	}
	return SelInt64In(c, p.Vals, in, ctr), nil
}

// String implements Pred.
func (p InI) String() string { return fmt.Sprintf("%s in %d", p.Column, p.Vals) }

// SelInt64In selects rows whose dense int64 value is in vals.
func SelInt64In(c *colstore.Int64s, vals []int64, in []int32, ctr *Counters) []int32 {
	want := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		want[v] = struct{}{}
	}
	ctr.IntOps += int64(len(vals))
	s := beginSel(ctr, len(c.V), in, 8)
	return endSel(ctr, s, keepRows(s, in, func(i int32) bool {
		_, ok := want[c.V[i]]
		return ok
	}))
}

// CmpF compares a float64 column against a literal.
type CmpF struct {
	// Column names the column; Op and V give the comparison.
	Column string
	Op     CmpOp
	V      float64
}

// Sel implements Pred.
func (p CmpF) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := column[*colstore.Float64s](t, p.Column)
	if err != nil {
		return nil, err
	}
	return SelCmp(c.V, p.Op, p.V, in, ctr), nil
}

// String implements Pred.
func (p CmpF) String() string { return fmt.Sprintf("%s %s %g", p.Column, p.Op, p.V) }

// CmpD compares a date column against a literal day number.
type CmpD struct {
	// Column names the column; Op and V give the comparison.
	Column string
	Op     CmpOp
	V      int32
}

// Sel implements Pred.
func (p CmpD) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := column[*colstore.Dates](t, p.Column)
	if err != nil {
		return nil, err
	}
	return SelCmp(c.V, p.Op, p.V, in, ctr), nil
}

// String implements Pred.
func (p CmpD) String() string {
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, colstore.FormatDate(p.V))
}

// DateRange selects rows with Lo <= column < Hi.
type DateRange struct {
	// Column names the date column; the window is [Lo, Hi).
	Column string
	Lo, Hi int32
}

// Sel implements Pred.
func (p DateRange) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := column[*colstore.Dates](t, p.Column)
	if err != nil {
		return nil, err
	}
	lo, hi := p.Lo, p.Hi-1
	if p.Hi <= p.Lo {
		// [Lo, Hi) is empty, and Hi-1 wraps at math.MinInt32.
		lo, hi = 1, 0
	}
	return SelRange(c.V, lo, hi, in, ctr), nil
}

// String implements Pred.
func (p DateRange) String() string {
	return fmt.Sprintf("%s in [%s, %s)", p.Column, colstore.FormatDate(p.Lo), colstore.FormatDate(p.Hi))
}

// FloatRange selects rows with Lo <= column <= Hi (SQL BETWEEN).
type FloatRange struct {
	// Column names the float column; the window is [Lo, Hi].
	Column string
	Lo, Hi float64
}

// Sel implements Pred.
func (p FloatRange) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := column[*colstore.Float64s](t, p.Column)
	if err != nil {
		return nil, err
	}
	return SelRange(c.V, p.Lo, p.Hi, in, ctr), nil
}

// String implements Pred.
func (p FloatRange) String() string {
	return fmt.Sprintf("%s between %g and %g", p.Column, p.Lo, p.Hi)
}

// StrEq selects rows whose string column equals (or, with Negate, does
// not equal) V.
type StrEq struct {
	// Column names the string column; V is the literal.
	Column string
	V      string
	// Negate flips the predicate to <>.
	Negate bool
}

// Sel implements Pred.
func (p StrEq) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	return selBound(p, t, in, ctr)
}

func (p StrEq) bind(t *colstore.Table, ctr *Counters) (SelFunc, error) {
	return bindMask(t, p.Column, func(d *colstore.Dict) []bool {
		if p.Negate {
			return NeMask(d, p.V, ctr)
		}
		return EqMask(d, p.V)
	})
}

// String implements Pred.
func (p StrEq) String() string {
	op := "="
	if p.Negate {
		op = "<>"
	}
	return fmt.Sprintf("%s %s %q", p.Column, op, p.V)
}

// StrIn selects rows whose string column is any of Vals.
type StrIn struct {
	// Column names the string column; Vals is the IN list.
	Column string
	Vals   []string
}

// Sel implements Pred.
func (p StrIn) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	return selBound(p, t, in, ctr)
}

func (p StrIn) bind(t *colstore.Table, ctr *Counters) (SelFunc, error) {
	return bindMask(t, p.Column, func(d *colstore.Dict) []bool { return InMask(d, ctr, p.Vals...) })
}

// String implements Pred.
func (p StrIn) String() string { return fmt.Sprintf("%s in %q", p.Column, p.Vals) }

// Like selects rows whose string column matches (or, with Negate, does
// not match) a SQL LIKE pattern.
type Like struct {
	// Column names the string column; Pattern is the LIKE pattern.
	Column  string
	Pattern string
	// Negate flips the predicate to NOT LIKE.
	Negate bool
}

// Sel implements Pred.
func (p Like) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	return selBound(p, t, in, ctr)
}

func (p Like) bind(t *colstore.Table, ctr *Counters) (SelFunc, error) {
	return bindMask(t, p.Column, func(d *colstore.Dict) []bool {
		if p.Negate {
			return NotLikeMask(d, p.Pattern, ctr)
		}
		return LikeMask(d, p.Pattern, ctr)
	})
}

// String implements Pred.
func (p Like) String() string {
	op := "like"
	if p.Negate {
		op = "not like"
	}
	return fmt.Sprintf("%s %s %q", p.Column, op, p.Pattern)
}

// ColCmpD compares two date columns row-wise.
type ColCmpD struct {
	// A and B name the date columns; Op gives the comparison A Op B.
	A, B string
	Op   CmpOp
}

// Sel implements Pred.
func (p ColCmpD) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	a, b, err := columnPair[*colstore.Dates](t, p.A, p.B)
	if err != nil {
		return nil, err
	}
	return SelColCmp(a.V, b.V, p.Op, in, ctr), nil
}

// String implements Pred.
func (p ColCmpD) String() string { return fmt.Sprintf("%s %s %s", p.A, p.Op, p.B) }

// And evaluates its children in order, each narrowing the previous
// selection, so the cheapest/most selective predicate should come first.
type And struct {
	// Preds are the conjuncts.
	Preds []Pred
}

// AndOf builds an And from its arguments.
func AndOf(ps ...Pred) Pred { return And{Preds: ps} }

// Sel implements Pred.
func (p And) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	return selBound(p, t, in, ctr)
}

func (p And) bind(t *colstore.Table, ctr *Counters) (SelFunc, error) {
	subs, err := bindAll(p.Preds, t, ctr)
	if err != nil {
		return nil, err
	}
	return func(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
		sel := in
		for _, sub := range subs {
			var err error
			sel, err = sub(t, sel, ctr)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				return sel, nil
			}
		}
		if sel == nil {
			// No conjuncts: every row.
			return SelAll(t.NumRows()), nil
		}
		return sel, nil
	}, nil
}

// String implements Pred.
func (p And) String() string {
	s := "("
	for i, sub := range p.Preds {
		if i > 0 {
			s += " and "
		}
		s += sub.String()
	}
	return s + ")"
}

// Or evaluates its children against the same input and unions the
// results (TPC-H Q19's disjunction of conjunction blocks).
type Or struct {
	// Preds are the disjuncts.
	Preds []Pred
}

// OrOf builds an Or from its arguments.
func OrOf(ps ...Pred) Pred { return Or{Preds: ps} }

// Sel implements Pred.
func (p Or) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	return selBound(p, t, in, ctr)
}

func (p Or) bind(t *colstore.Table, ctr *Counters) (SelFunc, error) {
	subs, err := bindAll(p.Preds, t, ctr)
	if err != nil {
		return nil, err
	}
	return func(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
		acc := []int32{} // no disjuncts: no row
		for i, sub := range subs {
			s, err := sub(t, in, ctr)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				acc = s
			} else {
				acc = SelUnion(acc, s, ctr)
			}
		}
		return acc, nil
	}, nil
}

// String implements Pred.
func (p Or) String() string {
	s := "("
	for i, sub := range p.Preds {
		if i > 0 {
			s += " or "
		}
		s += sub.String()
	}
	return s + ")"
}

// TruePred selects every input row. It is useful as a neutral element
// when composing predicates programmatically.
type TruePred struct{}

// Sel implements Pred.
func (TruePred) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	if in != nil {
		return in, nil
	}
	return SelAll(t.NumRows()), nil
}

// String implements Pred.
func (TruePred) String() string { return "true" }

// column looks up the named column of t and asserts its concrete type.
func column[C colstore.Column](t *colstore.Table, name string) (C, error) {
	var want C
	c, err := t.ColByName(name)
	if err != nil {
		return want, err
	}
	tc, ok := c.(C)
	if !ok {
		// Type does not read its receiver, so the nil want names C's type.
		return want, fmt.Errorf("exec: %s is %s, want %s", name, c.Type(), want.Type())
	}
	return tc, nil
}

// columnPair is column for the two operands of a row-wise compare.
func columnPair[C colstore.Column](t *colstore.Table, a, b string) (C, C, error) {
	ac, err := column[C](t, a)
	if err != nil {
		return ac, ac, err
	}
	bc, err := column[C](t, b)
	return ac, bc, err
}
