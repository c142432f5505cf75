package exec

import (
	"slices"

	"wimpi/internal/colstore"
)

// gatherParallelMinRows is the smallest selection worth splitting across
// workers. Below one default morsel only the allocations split, and at
// 16 Ki rows two workers gathered four columns slower than one.
const gatherParallelMinRows = 1 << 15

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
	cols, err := gatherCols(t.Cols, sel, workers, morselRows, ctr)
	if err != nil {
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
	var cols []colstore.Column
	var lists [][]int32
	var groups [][]int // column indexes per row list
	for i, c := range t.Cols {
		v, ok := c.(*colstore.View)
		if !ok || (names != nil && !slices.Contains(names, t.Schema[i].Name)) {
			continue
		}
		if cols == nil {
			cols = append([]colstore.Column(nil), t.Cols...)
		}
		g := colstore.RowListIndex(lists, v.Rows)
		if g < 0 {
			g = len(lists)
			lists, groups = append(lists, v.Rows), append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	if cols == nil {
		return t, nil
	}
	for g, rows := range lists {
		bases := make([]colstore.Column, len(groups[g]))
		for j, i := range groups[g] {
			bases[j] = cols[i].(*colstore.View).Base
		}
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		if !colstore.IsIdentity(rows, bases[0].Len()) {
			var err error
			if bases, err = gatherCols(bases, rows, workers, morselRows, ctr); err != nil {
				return nil, err
			}
		}
		for j, i := range groups[g] {
			cols[i] = bases[j]
		}
	}
	return colstore.MustNewTable(t.Name, t.Schema, cols), nil
}

// gatherCols returns each column gathered through sel: sequentially
// below gatherParallelMinRows or at one worker, else in morsels.
func gatherCols(in []colstore.Column, sel []int32, workers, morselRows int, ctr *Counters) ([]colstore.Column, error) {
	cols := make([]colstore.Column, len(in))
	if workers <= 1 || len(sel) < gatherParallelMinRows {
		for i, c := range in {
			cols[i] = c.Gather(sel)
		}
		return cols, nil
	}
	// The runtime zeroes an allocation on the goroutine that makes it, so
	// the workers allocate the output columns, one column a task.
	fills := make([]func(lo, hi int), len(cols))
	err := runMorselsInfallible(workers, len(cols), 1, ctr, func(ci, _, _ int, _ *Counters) {
		cols[ci], fills[ci] = gatherInto(in[ci], sel)
	})
	if err != nil {
		return nil, err
	}
	// Then one morsel pass fills every column's rows of the morsel.
	err = runMorselsInfallible(workers, len(sel), morselRows, ctr, func(_, lo, hi int, _ *Counters) {
		for _, fill := range fills {
			fill(lo, hi)
		}
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// gatherInto allocates c gathered through sel and returns it with the
// function that fills its rows [lo, hi).
func gatherInto(c colstore.Column, sel []int32) (colstore.Column, func(lo, hi int)) {
	switch col := c.(type) {
	case *colstore.Int64s:
		out := make([]int64, len(sel))
		return &colstore.Int64s{V: out}, gatherRange(out, col.V, sel)
	case *colstore.Float64s:
		out := make([]float64, len(sel))
		return &colstore.Float64s{V: out}, gatherRange(out, col.V, sel)
	case *colstore.Dates:
		out := make([]int32, len(sel))
		return &colstore.Dates{V: out}, gatherRange(out, col.V, sel)
	case *colstore.Bools:
		out := make([]bool, len(sel))
		return &colstore.Bools{V: out}, gatherRange(out, col.V, sel)
	case *colstore.Strings:
		out := make([]int32, len(sel))
		return &colstore.Strings{Codes: out, Dict: col.Dict}, gatherRange(out, col.Codes, sel)
	default:
		// Any other Column implementation keeps its own Gather.
		return c.Gather(sel), func(int, int) {}
	}
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
