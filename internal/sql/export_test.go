package sql

import (
	"wimpi/internal/exec"
	"wimpi/internal/plan"
)

// StatsSampleRows exposes the estimate's sample bound to the external
// tests.
const StatsSampleRows = statsSampleRows

// PredSel exposes the planner's selectivity estimate of p over table.
func PredSel(cat plan.Catalog, table string, p exec.Pred) float64 {
	return (&stats{cat: cat}).predSel(table, p)
}
