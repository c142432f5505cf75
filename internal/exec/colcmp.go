package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// SelColCmpI64 selects rows where cmp(a[i], b[i]) holds between two int64
// columns (e.g. s_nationkey = c_nationkey in Q5).
func SelColCmpI64(a, b *colstore.Int64s, op CmpOp, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(a.V), 16, true)
		out := make([]int32, 0, len(a.V)/2)
		for i := range a.V {
			if cmpI64(op, a.V[i], b.V[i]) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 16, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpI64(op, a.V[i], b.V[i]) {
			out = append(out, i)
		}
	}
	return out
}

// SelColCmpF64 selects rows where cmp(a[i], b[i]) holds between two
// float64 columns (e.g. ps_supplycost = min_cost in Q2).
func SelColCmpF64(a, b *colstore.Float64s, op CmpOp, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(a.V), 16, true)
		out := make([]int32, 0, len(a.V)/2)
		for i := range a.V {
			if cmpF64(op, a.V[i], b.V[i]) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 16, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpF64(op, a.V[i], b.V[i]) {
			out = append(out, i)
		}
	}
	return out
}

// ColCmpI compares two int64 columns row-wise.
type ColCmpI struct {
	// A and B name the columns; Op gives the comparison A Op B.
	A, B string
	Op   CmpOp
}

// Sel implements Pred.
func (p ColCmpI) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	ac, err := t.ColByName(p.A)
	if err != nil {
		return nil, err
	}
	bc, err := t.ColByName(p.B)
	if err != nil {
		return nil, err
	}
	av, okA := ac.(*colstore.Int64s)
	bv, okB := bc.(*colstore.Int64s)
	if !okA || !okB {
		return nil, fmt.Errorf("exec: ColCmpI: %s and %s columns, want int64", ac.Type(), bc.Type())
	}
	return SelColCmpI64(av, bv, p.Op, in, ctr), nil
}

// String implements Pred.
func (p ColCmpI) String() string { return fmt.Sprintf("%s %s %s", p.A, p.Op, p.B) }

// ColCmpF compares two float64 columns row-wise.
type ColCmpF struct {
	// A and B name the columns; Op gives the comparison A Op B.
	A, B string
	Op   CmpOp
}

// Sel implements Pred.
func (p ColCmpF) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	ac, err := t.ColByName(p.A)
	if err != nil {
		return nil, err
	}
	bc, err := t.ColByName(p.B)
	if err != nil {
		return nil, err
	}
	af, aok := ac.(*colstore.Float64s)
	bf, bok := bc.(*colstore.Float64s)
	if !aok || !bok {
		return nil, fmt.Errorf("exec: ColCmpF needs float64 columns, got %s and %s", ac.Type(), bc.Type())
	}
	return SelColCmpF64(af, bf, p.Op, in, ctr), nil
}

// String implements Pred.
func (p ColCmpF) String() string { return fmt.Sprintf("%s %s %s", p.A, p.Op, p.B) }
