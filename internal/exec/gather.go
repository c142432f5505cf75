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
		out := make([]int64, len(sel))
		err := runMorselsInfallible(workers, len(sel), morselRows, ctr, func(m, lo, hi int, _ *Counters) {
			for i := lo; i < hi; i++ {
				out[i] = col.V[sel[i]]
			}
		})
		if err != nil {
			return nil, err
		}
		return &colstore.Int64s{V: out}, nil
	case *colstore.Float64s:
		out := make([]float64, len(sel))
		err := runMorselsInfallible(workers, len(sel), morselRows, ctr, func(m, lo, hi int, _ *Counters) {
			for i := lo; i < hi; i++ {
				out[i] = col.V[sel[i]]
			}
		})
		if err != nil {
			return nil, err
		}
		return &colstore.Float64s{V: out}, nil
	case *colstore.Dates:
		out := make([]int32, len(sel))
		err := runMorselsInfallible(workers, len(sel), morselRows, ctr, func(m, lo, hi int, _ *Counters) {
			for i := lo; i < hi; i++ {
				out[i] = col.V[sel[i]]
			}
		})
		if err != nil {
			return nil, err
		}
		return &colstore.Dates{V: out}, nil
	case *colstore.Bools:
		out := make([]bool, len(sel))
		err := runMorselsInfallible(workers, len(sel), morselRows, ctr, func(m, lo, hi int, _ *Counters) {
			for i := lo; i < hi; i++ {
				out[i] = col.V[sel[i]]
			}
		})
		if err != nil {
			return nil, err
		}
		return &colstore.Bools{V: out}, nil
	case *colstore.Strings:
		out := make([]int32, len(sel))
		err := runMorselsInfallible(workers, len(sel), morselRows, ctr, func(m, lo, hi int, _ *Counters) {
			for i := lo; i < hi; i++ {
				out[i] = col.Codes[sel[i]]
			}
		})
		if err != nil {
			return nil, err
		}
		return &colstore.Strings{Codes: out, Dict: col.Dict}, nil
	default:
		// Any other Column implementation keeps its own Gather.
		return c.Gather(sel), nil
	}
}
