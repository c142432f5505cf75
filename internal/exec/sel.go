package exec

import (
	"unsafe"

	"wimpi/internal/colstore"
)

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

// fixed is the element type of a fixed-width column: a date's day
// number, an int64 or a float64. Each kernel over it is written once and
// compiled per type, so the shared loop costs nothing per row.
type fixed interface{ ~int32 | ~int64 | ~float64 }

// valueBytes is the width a kernel charges for each value of T it reads.
func valueBytes[T fixed]() int64 {
	var v T
	return int64(unsafe.Sizeof(v))
}

func cmpFixed[T fixed](op CmpOp, a, b T) bool {
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

// SelCmp returns the row indexes (from in, or all rows when in is nil)
// whose value in v satisfies op against val. The result is ascending
// whenever in is ascending.
func SelCmp[T fixed](v []T, op CmpOp, val T, in []int32, ctr *Counters) []int32 {
	width := valueBytes[T]()
	if in == nil {
		chargeSel(ctr, len(v), width, true)
		out := make([]int32, 0, len(v)/2)
		for i, x := range v {
			if cmpFixed(op, x, val) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), width, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpFixed(op, v[i], val) {
			out = append(out, i)
		}
	}
	return out
}

// SelRange selects rows with lo <= value <= hi; an interval with hi < lo
// selects nothing but is still scanned.
func SelRange[T fixed](v []T, lo, hi T, in []int32, ctr *Counters) []int32 {
	width := valueBytes[T]()
	if in == nil {
		chargeSel(ctr, len(v), width, true)
		out := make([]int32, 0, len(v)/2)
		for i, x := range v {
			if x >= lo && x <= hi {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), width, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if x := v[i]; x >= lo && x <= hi {
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
