// Package colstore implements the in-memory columnar storage layer of the
// WimPi OLAP engine: typed columns, dictionary-encoded strings, selection
// vectors, schemas, tables, and builders.
//
// The representation follows the column-at-a-time ("BAT algebra") school of
// in-memory OLAP engines such as MonetDB, which the paper used for its
// TPC-H study: every attribute is a densely packed array, strings are
// dictionary encoded, and operators communicate by materializing new
// columns or by passing selection vectors of qualifying row indexes.
package colstore

import "fmt"

// Type identifies the physical type of a column.
type Type uint8

// The supported physical column types.
const (
	// Int64 is a 64-bit signed integer column.
	Int64 Type = iota
	// Float64 is a 64-bit IEEE-754 floating point column.
	Float64
	// Date is a 32-bit date column storing days since 1970-01-01.
	Date
	// String is a dictionary-encoded string column.
	String
	// Bool is a boolean column.
	Bool
)

// String returns the lower-case name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Date:
		return "date"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column is an immutable, densely packed, typed vector of values.
//
// Kernels in package exec type-switch on the concrete implementations
// (Int64s, Float64s, Dates, Strings, Bools) for tight loops; the interface
// exists so that tables, plans and network code can handle columns
// generically.
type Column interface {
	// Type reports the physical type of the column.
	Type() Type
	// Len reports the number of values in the column.
	Len() int
	// SizeBytes reports the in-memory footprint of the column's values
	// (excluding any shared dictionary).
	SizeBytes() int64
	// Gather returns a new column holding, for each index i of sel, the
	// value at row sel[i]. Indexes must be in range.
	Gather(sel []int32) Column
	// Slice returns a zero-copy view of rows [lo, hi).
	Slice(lo, hi int) Column
}

// Int64s is a column of 64-bit integers.
type Int64s struct {
	// V holds the values. It must not be mutated after the column is
	// placed in a Table.
	V []int64
}

// Type implements Column.
func (c *Int64s) Type() Type { return Int64 }

// Len implements Column.
func (c *Int64s) Len() int { return len(c.V) }

// SizeBytes implements Column.
func (c *Int64s) SizeBytes() int64 { return int64(len(c.V)) * 8 }

// Gather implements Column.
func (c *Int64s) Gather(sel []int32) Column { return &Int64s{V: gathered(c.V, sel)} }

// Slice implements Column.
func (c *Int64s) Slice(lo, hi int) Column { return &Int64s{V: c.V[lo:hi]} }

// Float64s is a column of 64-bit floats.
type Float64s struct {
	// V holds the values.
	V []float64
}

// Type implements Column.
func (c *Float64s) Type() Type { return Float64 }

// Len implements Column.
func (c *Float64s) Len() int { return len(c.V) }

// SizeBytes implements Column.
func (c *Float64s) SizeBytes() int64 { return int64(len(c.V)) * 8 }

// Gather implements Column.
func (c *Float64s) Gather(sel []int32) Column { return &Float64s{V: gathered(c.V, sel)} }

// Slice implements Column.
func (c *Float64s) Slice(lo, hi int) Column { return &Float64s{V: c.V[lo:hi]} }

// Dates is a column of dates stored as days since the Unix epoch.
type Dates struct {
	// V holds the day numbers.
	V []int32
}

// Type implements Column.
func (c *Dates) Type() Type { return Date }

// Len implements Column.
func (c *Dates) Len() int { return len(c.V) }

// SizeBytes implements Column.
func (c *Dates) SizeBytes() int64 { return int64(len(c.V)) * 4 }

// Gather implements Column.
func (c *Dates) Gather(sel []int32) Column { return &Dates{V: gathered(c.V, sel)} }

// Slice implements Column.
func (c *Dates) Slice(lo, hi int) Column { return &Dates{V: c.V[lo:hi]} }

// Bools is a column of booleans.
type Bools struct {
	// V holds the values.
	V []bool
}

// Type implements Column.
func (c *Bools) Type() Type { return Bool }

// Len implements Column.
func (c *Bools) Len() int { return len(c.V) }

// SizeBytes implements Column.
func (c *Bools) SizeBytes() int64 { return int64(len(c.V)) }

// Gather implements Column.
func (c *Bools) Gather(sel []int32) Column { return &Bools{V: gathered(c.V, sel)} }

// Slice implements Column.
func (c *Bools) Slice(lo, hi int) Column { return &Bools{V: c.V[lo:hi]} }

// Strings is a dictionary-encoded string column: Codes[i] indexes into the
// shared Dict. Many columns may share one dictionary (for example, the
// partitions of a distributed table).
type Strings struct {
	// Codes holds, for each row, the dictionary code of its value.
	Codes []int32
	// Dict maps codes to string values.
	Dict *Dict
}

// Type implements Column.
func (c *Strings) Type() Type { return String }

// Len implements Column.
func (c *Strings) Len() int { return len(c.Codes) }

// SizeBytes implements Column.
func (c *Strings) SizeBytes() int64 { return int64(len(c.Codes)) * 4 }

// Gather implements Column. The result shares the receiver's dictionary.
func (c *Strings) Gather(sel []int32) Column {
	return &Strings{Codes: gathered(c.Codes, sel), Dict: c.Dict}
}

// Slice implements Column.
func (c *Strings) Slice(lo, hi int) Column {
	return &Strings{Codes: c.Codes[lo:hi], Dict: c.Dict}
}

// Value returns the string value at row i.
func (c *Strings) Value(i int) string { return c.Dict.Value(c.Codes[i]) }

// gathered returns, for each index i of sel, v[sel[i]]: the one loop
// behind every column's Gather.
func gathered[T any](v []T, sel []int32) []T {
	out := make([]T, len(sel))
	for i, s := range sel {
		out[i] = v[s]
	}
	return out
}
