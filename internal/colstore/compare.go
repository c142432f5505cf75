package colstore

import (
	"fmt"
	"math"
)

// TablesIdentical reports whether two tables are byte-identical: same
// shape, same column names, and bit-identical cell values — float64s
// are compared by bit pattern, strings by value (dictionary layouts may
// differ). On mismatch the second return value says where.
//
// This is the determinism-suite comparison: the parallel-execution
// tests use it to pin results across worker counts, and the cluster
// chaos tests use it to prove retry and straggler re-dispatch reproduce
// the fault-free answer exactly.
func TablesIdentical(a, b *Table) (bool, string) {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false, fmt.Sprintf("shape %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := 0; c < a.NumCols(); c++ {
		if a.Schema[c].Name != b.Schema[c].Name {
			return false, fmt.Sprintf("column %d named %q vs %q", c, a.Schema[c].Name, b.Schema[c].Name)
		}
		if ok, why := ColumnsIdentical(a.Col(c), b.Col(c)); !ok {
			return false, fmt.Sprintf("column %s: %s", a.Schema[c].Name, why)
		}
	}
	return true, ""
}

// Int64Reader returns a row accessor and the length of an int64 column,
// or false for a column of any other type.
func Int64Reader(c Column) (func(i int) int64, int, bool) {
	cc, ok := c.(*Int64s)
	if !ok {
		return nil, 0, false
	}
	return func(i int) int64 { return cc.V[i] }, len(cc.V), true
}

// ColumnsIdentical reports whether two columns hold bit-identical
// values (see TablesIdentical).
func ColumnsIdentical(a, b Column) (bool, string) {
	switch ca := a.(type) {
	case *Int64s:
		cb, ok := b.(*Int64s)
		if !ok || len(ca.V) != len(cb.V) {
			return false, "type/length mismatch"
		}
		for i := range ca.V {
			if ca.V[i] != cb.V[i] {
				return false, fmt.Sprintf("row %d: %d vs %d", i, ca.V[i], cb.V[i])
			}
		}
	case *Float64s:
		cb, ok := b.(*Float64s)
		if !ok || len(ca.V) != len(cb.V) {
			return false, "type/length mismatch"
		}
		for i := range ca.V {
			if math.Float64bits(ca.V[i]) != math.Float64bits(cb.V[i]) {
				return false, fmt.Sprintf("row %d: %v (%x) vs %v (%x)",
					i, ca.V[i], math.Float64bits(ca.V[i]), cb.V[i], math.Float64bits(cb.V[i]))
			}
		}
	case *Dates:
		cb, ok := b.(*Dates)
		if !ok || len(ca.V) != len(cb.V) {
			return false, "type/length mismatch"
		}
		for i := range ca.V {
			if ca.V[i] != cb.V[i] {
				return false, fmt.Sprintf("row %d: %d vs %d", i, ca.V[i], cb.V[i])
			}
		}
	case *Bools:
		cb, ok := b.(*Bools)
		if !ok || len(ca.V) != len(cb.V) {
			return false, "type/length mismatch"
		}
		for i := range ca.V {
			if ca.V[i] != cb.V[i] {
				return false, fmt.Sprintf("row %d: %t vs %t", i, ca.V[i], cb.V[i])
			}
		}
	case *Strings:
		cb, ok := b.(*Strings)
		if !ok || len(ca.Codes) != len(cb.Codes) {
			return false, "type/length mismatch"
		}
		for i := range ca.Codes {
			if ca.Value(i) != cb.Value(i) {
				return false, fmt.Sprintf("row %d: %q vs %q", i, ca.Value(i), cb.Value(i))
			}
		}
	default:
		return false, fmt.Sprintf("unhandled column type %T", a)
	}
	return true, ""
}
