package colstore

// View is a column that copies nothing: row i holds Base's row Rows[i].
// It is how a selection flows through the plan before any kernel reads
// the column — MonetDB's candidate list — and exec.Materialize is its
// one decoder, Base gathered through Rows. Views stay flat: Base is
// never itself a View, and a view of a view is one view over the root
// column (viewOf). Its size is the copy's, so memory accounting reads
// the same figure whether or not the copy has happened. Rows may be
// shared by many views and must not be mutated.
type View struct {
	// Base is the root column the rows index; never a View.
	Base Column
	// Rows names, for each row of the view, a row of Base.
	Rows []int32
}

// viewOf returns c read through rows: a View over c, or, when c is
// already a View, one over its root through the composed rows.
func viewOf(c Column, rows []int32) Column {
	if v, ok := c.(*View); ok {
		return &View{Base: v.Base, Rows: compose(v.Rows, rows)}
	}
	return &View{Base: c, Rows: rows}
}

// View returns t's rows named by sel, in order, copying no value: each
// column becomes a view over its root, and each distinct row list among
// t's views is composed with sel once, then shared. An identity sel
// returns a fresh header over t's own columns.
func (t *Table) View(sel []int32) *Table {
	if IsIdentity(sel, t.rows) {
		return t.Slice(0, len(sel))
	}
	cols := make([]Column, len(t.Cols))
	var inner, composed [][]int32
	for i, c := range t.Cols {
		v, ok := c.(*View)
		if !ok {
			cols[i] = &View{Base: c, Rows: sel}
			continue
		}
		j := RowListIndex(inner, v.Rows)
		if j < 0 {
			j = len(inner)
			inner, composed = append(inner, v.Rows), append(composed, gathered(v.Rows, sel))
		}
		cols[i] = &View{Base: v.Base, Rows: composed[j]}
	}
	return &Table{Name: t.Name, Schema: t.Schema, Cols: cols, rows: len(sel)}
}

// RowListIndex returns the index in lists of the row list rows itself —
// the same backing rows, not equal values — or -1.
func RowListIndex(lists [][]int32, rows []int32) int {
	for i, l := range lists {
		if len(l) == len(rows) && (len(l) == 0 || &l[0] == &rows[0]) {
			return i
		}
	}
	return -1
}

// compose returns the row list that reads inner through outer:
// out[i] = inner[outer[i]]. An identity outer (every row of inner, in
// order) returns inner itself.
func compose(inner, outer []int32) []int32 {
	if IsIdentity(outer, len(inner)) {
		return inner
	}
	return gathered(inner, outer)
}

// IsIdentity reports whether sel names each of n rows once, in order.
func IsIdentity(sel []int32, n int) bool {
	if len(sel) != n {
		return false
	}
	for i, s := range sel {
		if int(s) != i {
			return false
		}
	}
	return true
}

// Type implements Column.
func (c *View) Type() Type { return c.Base.Type() }

// Len implements Column.
func (c *View) Len() int { return len(c.Rows) }

// SizeBytes implements Column: the size of the materialized copy.
func (c *View) SizeBytes() int64 { return int64(len(c.Rows)) * widths[c.Type()] }

// Gather implements Column: a view over the root through the composed
// rows, copying no value.
func (c *View) Gather(sel []int32) Column { return viewOf(c, sel) }

// Slice implements Column.
func (c *View) Slice(lo, hi int) Column { return &View{Base: c.Base, Rows: c.Rows[lo:hi]} }

// widths holds the bytes one value of each type occupies in a dense
// column.
var widths = [...]int64{Int64: 8, Float64: 8, Date: 4, String: 4, Bool: 1}
