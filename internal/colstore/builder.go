package colstore

import "fmt"

// TableBuilder accumulates rows for a table column by column. It is the
// write path used by the TPC-H generator and by operators that construct
// result tables value-at-a-time (e.g. the coordinator's merge step).
type TableBuilder struct {
	name   string
	schema Schema

	ints    map[int][]int64
	floats  map[int][]float64
	dates   map[int][]int32
	bools   map[int][]bool
	strs    map[int][]int32
	dicts   map[int]*Dict
	numRows int
}

// NewTableBuilder returns a builder for the given schema. String columns
// receive fresh dictionaries unless SetDict installs a shared one.
func NewTableBuilder(name string, schema Schema) *TableBuilder {
	b := &TableBuilder{
		name:   name,
		schema: schema,
		ints:   make(map[int][]int64),
		floats: make(map[int][]float64),
		dates:  make(map[int][]int32),
		bools:  make(map[int][]bool),
		strs:   make(map[int][]int32),
		dicts:  make(map[int]*Dict),
	}
	for i, f := range schema {
		if f.Type == String {
			b.dicts[i] = NewDict()
		}
	}
	return b
}

// SetDict installs a shared dictionary for string column i. It must be
// called before any values are appended to that column.
func (b *TableBuilder) SetDict(i int, d *Dict) {
	if b.schema[i].Type != String {
		panic(fmt.Sprintf("colstore: SetDict on non-string column %s", b.schema[i].Name))
	}
	b.dicts[i] = d
}

// Grow pre-allocates capacity for n additional rows in every column.
func (b *TableBuilder) Grow(n int) {
	for i, f := range b.schema {
		switch f.Type {
		case Int64:
			if b.ints[i] == nil {
				b.ints[i] = make([]int64, 0, n)
			}
		case Float64:
			if b.floats[i] == nil {
				b.floats[i] = make([]float64, 0, n)
			}
		case Date:
			if b.dates[i] == nil {
				b.dates[i] = make([]int32, 0, n)
			}
		case Bool:
			if b.bools[i] == nil {
				b.bools[i] = make([]bool, 0, n)
			}
		case String:
			if b.strs[i] == nil {
				b.strs[i] = make([]int32, 0, n)
			}
		}
	}
}

// Int appends v to int64 column i.
func (b *TableBuilder) Int(i int, v int64) { b.ints[i] = append(b.ints[i], v) }

// Float appends v to float64 column i.
func (b *TableBuilder) Float(i int, v float64) { b.floats[i] = append(b.floats[i], v) }

// Date appends day number v to date column i.
func (b *TableBuilder) Date(i int, v int32) { b.dates[i] = append(b.dates[i], v) }

// Bool appends v to bool column i.
func (b *TableBuilder) Bool(i int, v bool) { b.bools[i] = append(b.bools[i], v) }

// Str interns v in column i's dictionary and appends its code.
func (b *TableBuilder) Str(i int, v string) {
	b.strs[i] = append(b.strs[i], b.dicts[i].Add(v))
}

// EndRow marks the end of a row and validates that every column received
// exactly one value.
func (b *TableBuilder) EndRow() {
	b.numRows++
	for i, f := range b.schema {
		var n int
		switch f.Type {
		case Int64:
			n = len(b.ints[i])
		case Float64:
			n = len(b.floats[i])
		case Date:
			n = len(b.dates[i])
		case Bool:
			n = len(b.bools[i])
		case String:
			n = len(b.strs[i])
		}
		if n != b.numRows {
			panic(fmt.Sprintf("colstore: table %s: column %s has %d values after %d rows",
				b.name, f.Name, n, b.numRows))
		}
	}
}

// NumRows reports the number of completed rows.
func (b *TableBuilder) NumRows() int { return b.numRows }

// Build assembles the final table. The builder must not be reused.
func (b *TableBuilder) Build() *Table {
	cols := make([]Column, len(b.schema))
	for i, f := range b.schema {
		switch f.Type {
		case Int64:
			v := b.ints[i]
			if v == nil {
				v = []int64{}
			}
			cols[i] = &Int64s{V: v}
		case Float64:
			v := b.floats[i]
			if v == nil {
				v = []float64{}
			}
			cols[i] = &Float64s{V: v}
		case Date:
			v := b.dates[i]
			if v == nil {
				v = []int32{}
			}
			cols[i] = &Dates{V: v}
		case Bool:
			v := b.bools[i]
			if v == nil {
				v = []bool{}
			}
			cols[i] = &Bools{V: v}
		case String:
			v := b.strs[i]
			if v == nil {
				v = []int32{}
			}
			cols[i] = &Strings{Codes: v, Dict: b.dicts[i]}
		}
	}
	return MustNewTable(b.name, b.schema, cols)
}
