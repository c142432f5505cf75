package exec

import "wimpi/internal/colstore"

// CmpOp is a comparison operator for selection kernels.
type CmpOp uint8

// The comparison operators.
const (
	// Eq selects values equal to the literal.
	Eq CmpOp = iota
	// Ne selects values not equal to the literal.
	Ne
	// Lt selects values less than the literal.
	Lt
	// Le selects values less than or equal to the literal.
	Le
	// Gt selects values greater than the literal.
	Gt
	// Ge selects values greater than or equal to the literal.
	Ge
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	default:
		return ">="
	}
}

func cmpI64(op CmpOp, a, b int64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	default:
		return a >= b
	}
}

func cmpF64(op CmpOp, a, b float64) bool {
	switch op {
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	default:
		return a >= b
	}
}

// chargeSel records the cost of examining n values of the given width,
// either as a sequential scan (dense) or through a selection vector.
func chargeSel(ctr *Counters, n int, width int64, dense bool) {
	ctr.TuplesScanned += int64(n)
	ctr.IntOps += int64(n)
	if dense {
		ctr.SeqBytes += int64(n) * width
	} else {
		ctr.RandomAccesses += int64(n)
	}
}

// SelInt64 returns the row indexes (from in, or all rows when in is nil)
// whose value satisfies op against val. The result is ascending whenever
// in is ascending.
func SelInt64(c *colstore.Int64s, op CmpOp, val int64, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(c.V), 8, true)
		out := make([]int32, 0, len(c.V)/2)
		for i, v := range c.V {
			if cmpI64(op, v, val) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 8, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpI64(op, c.V[i], val) {
			out = append(out, i)
		}
	}
	return out
}

// SelFloat64 is SelInt64 for float columns.
func SelFloat64(c *colstore.Float64s, op CmpOp, val float64, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(c.V), 8, true)
		out := make([]int32, 0, len(c.V)/2)
		for i, v := range c.V {
			if cmpF64(op, v, val) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 8, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpF64(op, c.V[i], val) {
			out = append(out, i)
		}
	}
	return out
}

// SelDate is SelInt64 for date columns; val is a day number.
func SelDate(c *colstore.Dates, op CmpOp, val int32, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(c.V), 4, true)
		out := make([]int32, 0, len(c.V)/2)
		for i, v := range c.V {
			if cmpI64(op, int64(v), int64(val)) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 4, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpI64(op, int64(c.V[i]), int64(val)) {
			out = append(out, i)
		}
	}
	return out
}

// SelDateRange selects rows with lo <= value < hi, the shape of every
// TPC-H date-window predicate.
func SelDateRange(c *colstore.Dates, lo, hi int32, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(c.V), 4, true)
		out := make([]int32, 0, len(c.V)/2)
		for i, v := range c.V {
			if v >= lo && v < hi {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 4, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if v := c.V[i]; v >= lo && v < hi {
			out = append(out, i)
		}
	}
	return out
}

// SelFloat64Range selects rows with lo <= value <= hi.
func SelFloat64Range(c *colstore.Float64s, lo, hi float64, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(c.V), 8, true)
		out := make([]int32, 0, len(c.V)/2)
		for i, v := range c.V {
			if v >= lo && v <= hi {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 8, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if v := c.V[i]; v >= lo && v <= hi {
			out = append(out, i)
		}
	}
	return out
}

// SelStrMask selects rows whose dictionary code is set in mask. Combined
// with the mask builders in strings.go this implements every string
// predicate (=, <>, IN, LIKE) with one predicate evaluation per distinct
// value.
func SelStrMask(c *colstore.Strings, mask []bool, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(c.Codes), 4, true)
		out := make([]int32, 0, len(c.Codes)/2)
		for i, code := range c.Codes {
			if mask[code] {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 4, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if mask[c.Codes[i]] {
			out = append(out, i)
		}
	}
	return out
}

// SelColCmpDates selects rows where cmp(a[i], b[i]) holds between two date
// columns (e.g. l_commitdate < l_receiptdate in Q4 and Q12).
func SelColCmpDates(a, b *colstore.Dates, op CmpOp, in []int32, ctr *Counters) []int32 {
	if in == nil {
		chargeSel(ctr, len(a.V), 8, true)
		out := make([]int32, 0, len(a.V)/2)
		for i := range a.V {
			if cmpI64(op, int64(a.V[i]), int64(b.V[i])) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 8, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpI64(op, int64(a.V[i]), int64(b.V[i])) {
			out = append(out, i)
		}
	}
	return out
}

// SelUnion merges two ascending selection vectors, removing duplicates.
// It implements OR over predicates evaluated against the same input.
func SelUnion(a, b []int32, ctr *Counters) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	ctr.IntOps += int64(len(a) + len(b))
	return out
}

// SelAll returns the dense selection vector [0, n).
//
//lint:allow pathcost -- identity vector setup; consuming kernels charge per selected row via chargeSel
func SelAll(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
