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

// lendSel lends a buffer of n rows from the scratch of ctr's runner (a
// fresh one outside any runner); giveSel gives it back. The selection
// kernels and join probes write every candidate row into one and then
// copy the kept prefix out, so a selective scan does not allocate (and
// zero) an output as long as its input.
func lendSel(ctr *Counters, n int) []int32 {
	if sc := ctr.scratch; sc != nil && len(sc.sels) > 0 {
		s := sc.sels[len(sc.sels)-1]
		sc.sels = sc.sels[:len(sc.sels)-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]int32, n)
}

// giveSel gives a buffer lent by lendSel back to ctr's runner.
func giveSel(ctr *Counters, s []int32) {
	if sc := ctr.scratch; sc != nil {
		sc.sels = append(sc.sels, s)
	}
}

// beginSel charges a kernel that reads width bytes of each candidate (all
// n rows as a sequential scan, or the rows of in through the selection
// vector) and lends it a scratch buffer with room for every candidate.
func beginSel(ctr *Counters, n int, in []int32, width int64) []int32 {
	if in == nil {
		ctr.SeqBytes += int64(n) * width
	} else {
		n = len(in)
		ctr.RandomAccesses += int64(n)
	}
	ctr.TuplesScanned += int64(n)
	ctr.IntOps += int64(n)
	return lendSel(ctr, n)
}

// endSel returns the first n rows of the scratch as an exact-size
// selection and gives the scratch back. The result is never nil, even
// when empty: a nil selection means all rows.
func endSel(ctr *Counters, s []int32, n int) []int32 {
	out := append([]int32{}, s[:n]...)
	giveSel(ctr, s)
	return out
}

// keepRows is the one loop of every selection kernel. It writes each
// candidate row (every row below len(out) when in is nil, else each row
// of in, in order) to out[n] and then advances n by whether keep accepts
// it, so the loop has no data-dependent branch. Callers pass a func
// literal with the operator already chosen; keepRows and the literal
// both inline into the kernel.
func keepRows(out, in []int32, keep func(i int32) bool) int {
	n := 0
	for j := range out {
		i := int32(j)
		if in != nil {
			i = in[j]
		}
		out[n] = i
		n += int(b2i(keep(i)))
	}
	return n
}

// SelCmp returns the row indexes (from in, or all rows when in is nil)
// whose value in v satisfies op against val. The result is ascending
// whenever in is ascending.
func SelCmp[T fixed](v []T, op CmpOp, val T, in []int32, ctr *Counters) []int32 {
	s := beginSel(ctr, len(v), in, valueBytes[T]())
	var n int
	switch op {
	case Eq:
		n = keepRows(s, in, func(i int32) bool { return v[i] == val })
	case Ne:
		n = keepRows(s, in, func(i int32) bool { return v[i] != val })
	case Lt:
		n = keepRows(s, in, func(i int32) bool { return v[i] < val })
	case Le:
		n = keepRows(s, in, func(i int32) bool { return v[i] <= val })
	case Gt:
		n = keepRows(s, in, func(i int32) bool { return v[i] > val })
	default:
		n = keepRows(s, in, func(i int32) bool { return v[i] >= val })
	}
	return endSel(ctr, s, n)
}

// SelRange selects rows with lo <= value <= hi; an interval with hi < lo
// selects nothing but is still scanned.
func SelRange[T fixed](v []T, lo, hi T, in []int32, ctr *Counters) []int32 {
	s := beginSel(ctr, len(v), in, valueBytes[T]())
	// & rather than &&: a second branch per row is what keepRows avoids.
	return endSel(ctr, s, keepRows(s, in, func(i int32) bool { return b2i(v[i] >= lo)&b2i(v[i] <= hi) != 0 }))
}

// SelStrMask selects rows whose dictionary code is set in mask. Combined
// with the mask builders in strings.go this implements every string
// predicate (=, <>, IN, LIKE) with one predicate evaluation per distinct
// value.
func SelStrMask(c *colstore.Strings, mask []bool, in []int32, ctr *Counters) []int32 {
	s := beginSel(ctr, len(c.Codes), in, 4)
	return endSel(ctr, s, keepRows(s, in, func(i int32) bool { return mask[c.Codes[i]] }))
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
//lint:allow pathcost -- identity vector setup; consuming kernels charge per selected row via beginSel
func SelAll(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
