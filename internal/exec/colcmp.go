package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// SelColCmp selects rows where a[i] op b[i] holds between two columns of
// one type (e.g. l_commitdate < l_receiptdate in Q4 and Q12,
// s_nationkey = c_nationkey in Q5), charging both values of each row.
func SelColCmp[T fixed](a, b []T, op CmpOp, in []int32, ctr *Counters) []int32 {
	width := 2 * valueBytes[T]()
	if in == nil {
		chargeSel(ctr, len(a), width, true)
		out := make([]int32, 0, len(a)/2)
		for i := range a {
			if cmpFixed(op, a[i], b[i]) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), width, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpFixed(op, a[i], b[i]) {
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
