package exec

import (
	"slices"

	"wimpi/internal/colstore"
)

// GatherTable materializes t's rows named by sel, splitting the gather
// across up to workers goroutines. Each morsel writes a disjoint range
// of every output column, so the result is identical to t.Gather(sel).
// An identity sel (every row of t, in order) copies nothing: the result
// is a fresh header over t's own columns, which is safe because no
// operator writes into an input column. Callers charge materialization
// counters themselves, exactly as they would for the sequential Gather;
// ctr only carries the query's scheduling handle, and the only possible
// error is the query's cancellation, which must propagate: a
// half-gathered table would flow downstream as if complete.
func GatherTable(t *colstore.Table, sel []int32, workers, morselRows int, ctr *Counters) (*colstore.Table, error) {
	if err := ctr.sched.Err(); err != nil {
		return nil, err
	}
	if colstore.IsIdentity(sel, t.NumRows()) {
		return t.Slice(0, len(sel)), nil
	}
	cols := slices.Clone(t.Cols)
	if err := gatherCols(cols, sel, workers, morselRows, ctr); err != nil {
		return nil, err
	}
	return colstore.MustNewTable(t.Name, t.Schema, cols), nil
}

// Materialize returns t with its view columns (colstore.View, made by a
// lazy gather) copied into dense ones — those named in names, or every
// one when names is nil — and t itself when there is none. The views
// sharing one row list are gathered from their roots together, in one
// pass of GatherTable's loops (an identity list hands over the roots).
// Columns that are not views are shared. Charges nothing: the gather
// that made a view charged its copy.
//
//lint:allow pathcost -- the lazy gather that made each view charged its copy
func Materialize(t *colstore.Table, names []string, workers, morselRows int, ctr *Counters) (*colstore.Table, error) {
	// One pass numbers each distinct row list and records, per column,
	// the list it is read through (-1: not copied).
	var listBuf [4][]int32
	var groupBuf [16]int
	lists, group := listBuf[:0], groupBuf[:0]
	for i, c := range t.Cols {
		g := -1
		if v, ok := c.(*colstore.View); ok && (names == nil || slices.Contains(names, t.Schema[i].Name)) {
			if g = colstore.RowListIndex(lists, v.Rows); g < 0 {
				g, lists = len(lists), append(lists, v.Rows)
			}
		}
		group = append(group, g)
	}
	if len(lists) == 0 {
		return t, nil
	}
	cols := slices.Clone(t.Cols)
	bases := make([]colstore.Column, 0, len(cols))
	for g, rows := range lists {
		bases = bases[:0]
		for i, gi := range group {
			if gi == g {
				bases = append(bases, cols[i].(*colstore.View).Base)
			}
		}
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		if !colstore.IsIdentity(rows, bases[0].Len()) {
			if err := gatherCols(bases, rows, workers, morselRows, ctr); err != nil {
				return nil, err
			}
		}
		j := 0
		for i, gi := range group {
			if gi == g {
				cols[i], j = bases[j], j+1
			}
		}
	}
	return colstore.MustNewTable(t.Name, t.Schema, cols), nil
}

// ViewRows returns rows [lo, hi) of v decoded into dst's storage when
// dst — a column an earlier call returned, or nil — has v's type and
// the room, else into a fresh column. Charges nothing: the gather that
// made v charged its copy.
func ViewRows(v *colstore.View, lo, hi int, dst colstore.Column) colstore.Column {
	out, fill := gatherInto(v.Base, v.Rows[lo:hi], dst)
	fill(0, hi-lo)
	return out
}

// gatherCols replaces each column of cols with it gathered through sel:
// sequentially when Serial says so, else in morsels.
func gatherCols(cols []colstore.Column, sel []int32, workers, morselRows int, ctr *Counters) error {
	if Serial(workers, len(sel), morselRows) {
		for i, c := range cols {
			cols[i] = c.Gather(sel)
		}
		return nil
	}
	// The runtime zeroes an allocation on the goroutine that makes it, so
	// the workers allocate the output columns, one column a task.
	fills := make([]func(lo, hi int), len(cols))
	err := runMorselsInfallible(workers, len(cols), 1, ctr, func(ci, _, _ int, _ *Counters) {
		cols[ci], fills[ci] = gatherInto(cols[ci], sel, nil)
	})
	if err != nil {
		return err
	}
	// Then one morsel pass fills every column's rows of the morsel.
	return runMorselsInfallible(workers, len(sel), morselRows, ctr, func(_, lo, hi int, _ *Counters) {
		for _, fill := range fills {
			fill(lo, hi)
		}
	})
}

// gatherInto returns c gathered through sel — in dst's storage when dst
// is a column of c's type with the room, else in a fresh column — with
// the function that fills its rows [lo, hi).
func gatherInto(c colstore.Column, sel []int32, dst colstore.Column) (colstore.Column, func(lo, hi int)) {
	switch col := c.(type) {
	case *colstore.Int64s:
		out := into(dst, func(d *colstore.Int64s) *[]int64 { return &d.V }, len(sel))
		return out, gatherRange(out.V, col.V, sel)
	case *colstore.Float64s:
		out := into(dst, func(d *colstore.Float64s) *[]float64 { return &d.V }, len(sel))
		return out, gatherRange(out.V, col.V, sel)
	case *colstore.Dates:
		out := into(dst, func(d *colstore.Dates) *[]int32 { return &d.V }, len(sel))
		return out, gatherRange(out.V, col.V, sel)
	case *colstore.Bools:
		out := into(dst, func(d *colstore.Bools) *[]bool { return &d.V }, len(sel))
		return out, gatherRange(out.V, col.V, sel)
	case *colstore.Strings:
		out := into(dst, func(d *colstore.Strings) *[]int32 { return &d.Codes }, len(sel))
		out.Dict = col.Dict
		return out, gatherRange(out.Codes, col.Codes, sel)
	default:
		// Any other Column implementation keeps its own Gather.
		return c.Gather(sel), func(int, int) {}
	}
}

// into returns dst as a *C whose values, reached through vals, are
// resized to n, reusing their storage when dst is a *C with the room;
// otherwise a fresh *C with n fresh values.
func into[C any, P interface {
	*C
	colstore.Column
}, T any](dst colstore.Column, vals func(P) *[]T, n int) P {
	d, ok := dst.(P)
	if !ok {
		d = new(C)
	}
	if v := vals(d); cap(*v) < n {
		*v = make([]T, n)
	} else {
		*v = (*v)[:n]
	}
	return d
}

// gatherRange returns the fill of out[lo:hi] with v[sel[i]].
func gatherRange[T any](out, v []T, sel []int32) func(lo, hi int) {
	return func(lo, hi int) {
		out, sel := out[lo:hi], sel[lo:hi]
		for i, s := range sel {
			out[i] = v[s]
		}
	}
}
