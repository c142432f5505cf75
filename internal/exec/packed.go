package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// Packed kernels: evaluation directly on bit-packed and
// frame-of-reference codes. The literal is translated into code space
// once per kernel call (constant - reference frame), then every row is
// decided with one unsigned code comparison — the column is never
// decoded into a dense 8-byte-per-row array. The counters reflect that:
// the dense paths charge SeqBytes equal to the compressed footprint
// (c.SizeBytes()), exactly like the RLE kernels, which is how the
// hardware model sees the smaller footprint.

func cmpU64(op CmpOp, a, b uint64) bool {
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

// packedDomain classifies a literal against a code domain.
type packedDomain int8

const (
	// domBelow: the literal is below every representable value.
	domBelow packedDomain = -1
	// domIn: the literal maps to a code in [0, maxCode].
	domIn packedDomain = 0
	// domAbove: the literal is above every representable value.
	domAbove packedDomain = 1
)

// translateConst maps an int64 literal into the code space of a packed
// column with reference frame ref and width w. When the literal falls
// outside the representable domain [ref, ref+maxCode] the comparison
// result is the same for every row, so kernels short-circuit to
// all-rows or no-rows without touching the codes.
func translateConst(ref int64, w uint8, val int64) (uint64, packedDomain) {
	if val < ref {
		return 0, domBelow
	}
	// val >= ref, so the two's-complement difference is the true
	// unsigned distance even when it overflows int64.
	d := uint64(val) - uint64(ref)
	if d > maxPackedCode(w) {
		return 0, domAbove
	}
	return d, domIn
}

// maxPackedCode mirrors colstore's maxCode: the largest code in w bits
// (w <= 63 by construction of the encoders).
func maxPackedCode(w uint8) uint64 { return uint64(1)<<w - 1 }

// constAnswer resolves an out-of-domain comparison: with the literal
// below the domain every stored value is greater, above the domain every
// stored value is smaller.
func constAnswer(op CmpOp, dom packedDomain) bool {
	if dom == domBelow {
		// value > literal for every row
		return op == Ne || op == Gt || op == Ge
	}
	// value < literal for every row
	return op == Ne || op == Lt || op == Le
}

// selPackedAll materializes the all-rows answer of a short-circuited
// comparison; the one translation op is charged by the caller.
func selPackedAll(n int, in []int32) []int32 {
	if in != nil {
		return in
	}
	return SelAll(n)
}

// selPackedCodes selects the rows of codes whose code satisfies op
// against the literal translated into code space via ref. It is the
// shared body of SelBitPackedInt64 (ref 0) and SelFoRInt64 (ref =
// frame).
func selPackedCodes(codes *colstore.BitPackedInt64, ref int64, op CmpOp, val int64, in []int32, ctr *Counters) []int32 {
	code, dom := translateConst(ref, codes.W, val)
	ctr.IntOps++ // constant translation
	if dom != domIn {
		if constAnswer(op, dom) {
			return selPackedAll(codes.Len(), in)
		}
		return nil
	}
	if codes.W == 0 {
		// Width 0 stores the single value ref; in-domain means val == ref.
		if cmpU64(op, 0, code) {
			return selPackedAll(codes.Len(), in)
		}
		return nil
	}
	if in == nil {
		// Dense path: stream the packed words once. Cost is the
		// compressed footprint, not 8 bytes per row.
		ctr.TuplesScanned += int64(codes.Len())
		ctr.IntOps += int64(codes.Len())
		ctr.SeqBytes += codes.SizeBytes()
		out := make([]int32, 0, codes.Len()/2)
		for i := 0; i < codes.Len(); i++ {
			if cmpU64(op, codes.Code(int32(i)), code) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	// Selective path: per-row code extraction through the selection
	// vector.
	ctr.TuplesScanned += int64(len(in))
	ctr.IntOps += int64(len(in)) * 2 // extract + compare
	ctr.RandomAccesses += int64(len(in))
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpU64(op, codes.Code(i), code) {
			out = append(out, i)
		}
	}
	return out
}

// SelBitPackedInt64 is SelInt64 over a bit-packed column: the literal is
// translated into code space and compared against raw codes.
func SelBitPackedInt64(c *colstore.BitPackedInt64, op CmpOp, val int64, in []int32, ctr *Counters) []int32 {
	return selPackedCodes(c, 0, op, val, in, ctr)
}

// SelFoRInt64 is SelInt64 over a frame-of-reference column: the literal
// is rebased against the reference frame and compared against raw codes.
func SelFoRInt64(c *colstore.FoRInt64, op CmpOp, val int64, in []int32, ctr *Counters) []int32 {
	return selPackedCodes(&c.Codes, c.Ref, op, val, in, ctr)
}

// selPackedIn selects rows whose code is in the translated literal set.
// Literals outside the code domain cannot match any row and are dropped
// during translation; an empty surviving set short-circuits to no rows.
func selPackedIn(codes *colstore.BitPackedInt64, ref int64, vals []int64, in []int32, ctr *Counters) []int32 {
	want := make(map[uint64]struct{}, len(vals))
	for _, v := range vals {
		if code, dom := translateConst(ref, codes.W, v); dom == domIn {
			want[code] = struct{}{}
		}
	}
	ctr.IntOps += int64(len(vals)) // constant translation
	if len(want) == 0 {
		return nil
	}
	if in == nil {
		ctr.TuplesScanned += int64(codes.Len())
		ctr.IntOps += int64(codes.Len())
		ctr.SeqBytes += codes.SizeBytes()
		out := make([]int32, 0, codes.Len()/2)
		for i := 0; i < codes.Len(); i++ {
			if _, ok := want[codes.Code(int32(i))]; ok {
				out = append(out, int32(i))
			}
		}
		return out
	}
	ctr.TuplesScanned += int64(len(in))
	ctr.IntOps += int64(len(in)) * 2
	ctr.RandomAccesses += int64(len(in))
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if _, ok := want[codes.Code(i)]; ok {
			out = append(out, i)
		}
	}
	return out
}

// SelInt64In selects rows whose dense int64 value is in vals.
func SelInt64In(c *colstore.Int64s, vals []int64, in []int32, ctr *Counters) []int32 {
	want := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		want[v] = struct{}{}
	}
	ctr.IntOps += int64(len(vals))
	if in == nil {
		chargeSel(ctr, len(c.V), 8, true)
		out := make([]int32, 0, len(c.V)/2)
		for i, v := range c.V {
			if _, ok := want[v]; ok {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 8, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if _, ok := want[c.V[i]]; ok {
			out = append(out, i)
		}
	}
	return out
}

// SelRLEInt64In is SelInt64In over a run-length-encoded column: the set
// membership test runs once per run.
func SelRLEInt64In(c *colstore.RLEInt64, vals []int64, in []int32, ctr *Counters) []int32 {
	want := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		want[v] = struct{}{}
	}
	ctr.IntOps += int64(len(vals))
	if in == nil {
		out := make([]int32, 0, c.Len()/2)
		for i, v := range c.Vals {
			if _, ok := want[v]; ok {
				for j := c.Starts[i]; j < c.Starts[i+1]; j++ {
					out = append(out, j)
				}
			}
		}
		ctr.TuplesScanned += int64(c.Len())
		ctr.IntOps += int64(c.NumRuns())
		ctr.SeqBytes += c.SizeBytes()
		return out
	}
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if _, ok := want[c.Value(i)]; ok {
			out = append(out, i)
		}
	}
	ctr.TuplesScanned += int64(len(in))
	ctr.IntOps += int64(len(in)) * 4 // binary search per row
	ctr.RandomAccesses += int64(len(in))
	return out
}

// InI selects rows whose int64 column is any of Vals (SQL IN over
// integers). On encoded columns the IN list is translated into code
// space once; literals outside the column's domain drop out of the set.
type InI struct {
	// Column names the int64 column; Vals is the IN list.
	Column string
	Vals   []int64
}

// Sel implements Pred.
func (p InI) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := t.ColByName(p.Column)
	if err != nil {
		return nil, err
	}
	switch ic := c.(type) {
	case *colstore.Int64s:
		return SelInt64In(ic, p.Vals, in, ctr), nil
	case *colstore.RLEInt64:
		return SelRLEInt64In(ic, p.Vals, in, ctr), nil
	case *colstore.BitPackedInt64:
		return selPackedIn(ic, 0, p.Vals, in, ctr), nil
	case *colstore.FoRInt64:
		return selPackedIn(&ic.Codes, ic.Ref, p.Vals, in, ctr), nil
	default:
		return nil, fmt.Errorf("exec: %s is %s, want int64", p.Column, c.Type())
	}
}

// String implements Pred.
func (p InI) String() string { return fmt.Sprintf("%s in %d", p.Column, p.Vals) }

// AsInt64 returns the column's values as a dense int64 slice, decoding
// RLE, bit-packed, and frame-of-reference layouts. The result aliases
// the column's storage for dense columns. This is the explicit
// materialization point for operators without a coded path (aggregate
// arguments); the decode is charged at the compressed read footprint
// plus per-row unpack work.
func AsInt64(c colstore.Column, ctr *Counters) ([]int64, error) {
	switch v := c.(type) {
	case *colstore.Int64s:
		return v.V, nil
	case *colstore.RLEInt64:
		out := make([]int64, v.Len())
		for i, val := range v.Vals {
			for j := v.Starts[i]; j < v.Starts[i+1]; j++ {
				out[j] = val
			}
		}
		ctr.SeqBytes += v.SizeBytes()
		ctr.IntOps += int64(v.Len())
		return out, nil
	case *colstore.BitPackedInt64:
		out := make([]int64, v.Len())
		v.DecodeInto(out, 0)
		ctr.SeqBytes += v.SizeBytes()
		ctr.IntOps += int64(v.Len())
		return out, nil
	case *colstore.FoRInt64:
		out := make([]int64, v.Len())
		v.Codes.DecodeInto(out, v.Ref)
		ctr.SeqBytes += v.SizeBytes()
		ctr.IntOps += int64(v.Len())
		return out, nil
	default:
		return nil, fmt.Errorf("exec: cannot treat %s column as int64", c.Type())
	}
}
