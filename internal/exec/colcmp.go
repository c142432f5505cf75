package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// SelColCmp selects rows where a[i] op b[i] holds between two columns of
// one type (e.g. l_commitdate < l_receiptdate in Q4 and Q12,
// s_nationkey = c_nationkey in Q5), charging both values of each row.
func SelColCmp[T fixed](a, b []T, op CmpOp, in []int32, ctr *Counters) []int32 {
	s := beginSel(ctr, len(a), in, 2*valueBytes[T]())
	var n int
	switch op {
	case Eq:
		n = keepRows(s, in, func(i int32) bool { return a[i] == b[i] })
	case Ne:
		n = keepRows(s, in, func(i int32) bool { return a[i] != b[i] })
	case Lt:
		n = keepRows(s, in, func(i int32) bool { return a[i] < b[i] })
	case Le:
		n = keepRows(s, in, func(i int32) bool { return a[i] <= b[i] })
	case Gt:
		n = keepRows(s, in, func(i int32) bool { return a[i] > b[i] })
	default:
		n = keepRows(s, in, func(i int32) bool { return a[i] >= b[i] })
	}
	return endSel(ctr, s, n)
}

// ColCmpI compares two int64 columns row-wise.
type ColCmpI struct {
	// A and B name the columns; Op gives the comparison A Op B.
	A, B string
	Op   CmpOp
}

// Sel implements Pred.
func (p ColCmpI) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	a, b, err := columnPair[*colstore.Int64s](t, p.A, p.B)
	if err != nil {
		return nil, err
	}
	return SelColCmp(a.V, b.V, p.Op, in, ctr), nil
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
	a, b, err := columnPair[*colstore.Float64s](t, p.A, p.B)
	if err != nil {
		return nil, err
	}
	return SelColCmp(a.V, b.V, p.Op, in, ctr), nil
}

// String implements Pred.
func (p ColCmpF) String() string { return fmt.Sprintf("%s %s %s", p.A, p.Op, p.B) }
