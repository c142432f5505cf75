package sql

import (
	"slices"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/plan"
)

// statsSampleRows bounds the rows sampled per predicate estimate.
const statsSampleRows = 1024

// stats estimates cardinalities from the catalog. Estimates depend only
// on table contents and the statement text — never on the worker count —
// so every node of a cluster plans its own partition deterministically.
// Estimation work is not charged to any query's counters, and stats holds
// no state of its own, so concurrent planners may share it.
type stats struct {
	cat plan.Catalog
}

// tableRows returns the base table's row count.
func (s *stats) tableRows(name string) float64 {
	t, err := s.cat.Table(name)
	if err != nil {
		return 0
	}
	return float64(t.NumRows())
}

// predSel estimates a scan predicate's selectivity by evaluating it over
// a deterministic strided sample of the table's rows, selecting from the
// table itself with the sample as the input rows, so no column is copied
// — unless the predicate reads a string column whose dictionary holds
// more values than the sample has rows: binding to it would match every
// value (a LIKE builds a mask over the whole dictionary) to test a
// thousand rows, so the predicate runs over a sample table instead
// (sampleTable). Errors degrade to 1.0 (no pruning assumed) rather than
// failing planning.
func (s *stats) predSel(table string, p exec.Pred) float64 {
	if p == nil {
		return 1
	}
	t, err := s.cat.Table(table)
	if err != nil {
		return 1
	}
	rows := t.NumRows()
	if rows == 0 {
		return 1
	}
	k := min(rows, statsSampleRows)
	sample := make([]int32, k)
	for i := range sample {
		sample[i] = int32(int64(i) * int64(rows) / int64(k))
	}
	in := sample
	if st := sampleTable(t, p, sample); st != nil {
		t, in = st, nil
	}
	hits, err := p.Sel(t, in, &exec.Counters{})
	if err != nil {
		return 1
	}
	return float64(len(hits)) / float64(k)
}

// sampleTable returns the columns p reads (plan.PredCols) at the sample
// rows, each string column whose dictionary outgrows the sample
// re-encoded into a dictionary of only its sampled values, added in
// ascending code order so a code-ordered dictionary stays code-ordered.
// It returns nil when no column is re-encoded, or p cannot be analyzed.
func sampleTable(t *colstore.Table, p exec.Pred, sample []int32) *colstore.Table {
	names, ok := plan.PredCols(p)
	if !ok {
		return nil
	}
	t, err := t.Project(names...)
	if err != nil {
		return nil
	}
	cols := make([]colstore.Column, len(names))
	recoded := false
	for i, c := range t.Cols {
		cols[i] = c.Gather(sample)
		s, ok := c.(*colstore.Strings)
		if !ok || s.Dict.Len() <= len(sample) {
			continue
		}
		codes := cols[i].(*colstore.Strings).Codes
		distinct := slices.Clone(codes)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		dict := colstore.NewDict()
		for _, code := range distinct {
			dict.Add(s.Dict.Value(code))
		}
		for j, code := range codes {
			to, _ := slices.BinarySearch(distinct, code)
			codes[j] = int32(to)
		}
		cols[i], recoded = &colstore.Strings{Codes: codes, Dict: dict}, true
	}
	if !recoded {
		return nil
	}
	return colstore.MustNewTable(t.Name, t.Schema, cols)
}
