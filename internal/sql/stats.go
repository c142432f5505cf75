package sql

import (
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
// table itself with the sample as the input rows, so no column is copied.
// Errors degrade to 1.0 (no pruning assumed) rather than failing planning.
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
	hits, err := p.Sel(t, sample, &exec.Counters{})
	if err != nil {
		return 1
	}
	return float64(len(hits)) / float64(k)
}
