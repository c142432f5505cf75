package exec

import "wimpi/internal/colstore"

// gatherParallelMinRows is the smallest selection worth splitting across
// workers.
const gatherParallelMinRows = 1 << 14

// GatherTable materializes t's rows named by sel, splitting the gather
// across up to workers goroutines. Each morsel writes a disjoint range
// of every output column, so the result is identical to t.Gather(sel).
// Callers charge materialization counters themselves, exactly as they
// would for the sequential Gather; ctr only carries the query's
// scheduling handle, and the only possible error is the query's
// cancellation.
func GatherTable(t *colstore.Table, sel []int32, workers, morselRows int, ctr *Counters) (*colstore.Table, error) {
	if workers <= 1 || len(sel) < gatherParallelMinRows {
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		return t.Gather(sel), nil
	}
	cols := make([]colstore.Column, t.NumCols())
	for ci, c := range t.Cols {
		col, err := gatherColumn(c, sel, workers, morselRows, ctr)
		if err != nil {
			return nil, err
		}
		cols[ci] = col
	}
	return colstore.MustNewTable(t.Name, t.Schema, cols), nil
}

// gatherColumn gathers one column morsel-parallel. The callbacks are
// infallible (disjoint writes of pre-sized output), so the only error is
// the query's cancellation — which must propagate, or a half-gathered
// column would flow downstream as if complete.
func gatherColumn(c colstore.Column, sel []int32, workers, morselRows int, ctr *Counters) (colstore.Column, error) {
	switch col := c.(type) {
	case *colstore.Int64s:
		v, err := gatherMorsels(col.V, sel, workers, morselRows, ctr)
		return &colstore.Int64s{V: v}, err
	case *colstore.Float64s:
		v, err := gatherMorsels(col.V, sel, workers, morselRows, ctr)
		return &colstore.Float64s{V: v}, err
	case *colstore.Dates:
		v, err := gatherMorsels(col.V, sel, workers, morselRows, ctr)
		return &colstore.Dates{V: v}, err
	case *colstore.Bools:
		v, err := gatherMorsels(col.V, sel, workers, morselRows, ctr)
		return &colstore.Bools{V: v}, err
	case *colstore.Strings:
		v, err := gatherMorsels(col.Codes, sel, workers, morselRows, ctr)
		return &colstore.Strings{Codes: v, Dict: col.Dict}, err
	default:
		// Any other Column implementation keeps its own Gather.
		return c.Gather(sel), nil
	}
}

// gatherMorsels returns v[sel[i]] for every i, each morsel writing its
// own range of the output.
func gatherMorsels[T any](v []T, sel []int32, workers, morselRows int, ctr *Counters) ([]T, error) {
	out := make([]T, len(sel))
	err := runMorselsInfallible(workers, len(sel), morselRows, ctr, func(_, lo, hi int, _ *Counters) {
		for i := lo; i < hi; i++ {
			out[i] = v[sel[i]]
		}
	})
	return out, err
}
