package lint

import "strings"

// ScopedAnalyzer binds an analyzer to the package paths whose
// invariants it guards. Scoping lives here — not inside the analyzers —
// so fixtures can exercise an analyzer directly while the multichecker
// applies it only where the invariant is meaningful (wall clocks are
// fine in a benchmark harness; they are a bug in a kernel).
type ScopedAnalyzer struct {
	Analyzer *Analyzer
	// Packages lists exact import paths; a trailing "/..." matches the
	// subtree.
	Packages []string
}

// Suite is the wimpi-lint analyzer suite with its package scopes:
//
//   - determinism guards every package that produces (or partitions)
//     query results: kernels, the engine, the column store, plan
//     operators, the cluster layer whose partition generation and
//     merges must be byte-identical across nodes and re-dispatches, the
//     obs layer whose span counters feed EXPLAIN ANALYZE, and the SQL
//     frontend whose plan choices must be identical on every node that
//     plans the same shipped statement.
//   - costaccounting guards the internal/exec subtree (including
//     exec/fused's compiled row kernels and the RLE kernels that
//     evaluate run-at-a-time on compressed columns) plus internal/spill,
//     the places kernels charge the counters the hardware simulation
//     consumes — a spill write that skips SpillWriteBytes makes disk
//     I/O free in the simulated comparison.
//   - ctxcheck guards the cluster layer's RPC and wire protocol and the
//     spill area's file I/O, whose chunked reads and writes must stop
//     at a chunk boundary when the query is canceled;
//     closecheck guards the cluster layer too, and (as the
//     error-discard analyzer) also guards the
//     SQL frontend, where a swallowed bind or parse error would silently
//     plan the wrong statement, and the exec, plan, and serve layers,
//     where its stricter morsel-runner rule forbids dropping a
//     RunMorsels error even with `_ =` — a dropped morsel error is a
//     silently truncated query result.
//   - goroutines guards the kernel and plan layers, where a leaked
//     worker races on Counters past RunMorsels.
//   - taintflow (the dataflow upgrade of determinism's map-range
//     heuristic) covers the same result-producing packages as
//     determinism: it tracks nondeterminism from source to sink instead
//     of flagging every map range.
//   - pathcost guards internal/exec, exec/fused, and internal/spill:
//     every path through an exported looping kernel — including the
//     spill segment writers/readers — must charge Counters before
//     return.
//   - hotalloc guards the kernel, fused, and plan layers, where a
//     per-morsel allocation multiplies by morsel count into the exact
//     DRAM traffic the wimpy-node budget cannot absorb.
//   - exhaustive guards the packages that switch over sealed node sets:
//     sql AST nodes, plan nodes, and exec expression/predicate nodes.
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{Determinism, []string{
			"wimpi/internal/exec/...",
			"wimpi/internal/engine",
			"wimpi/internal/colstore",
			"wimpi/internal/plan",
			"wimpi/internal/cluster/...",
			"wimpi/internal/flow",
			"wimpi/internal/obs",
			"wimpi/internal/serve",
			"wimpi/internal/sql/...",
		}},
		{TaintFlow, []string{
			"wimpi/internal/exec/...",
			"wimpi/internal/engine",
			"wimpi/internal/colstore",
			"wimpi/internal/plan",
			"wimpi/internal/cluster/...",
			"wimpi/internal/flow",
			"wimpi/internal/obs",
			"wimpi/internal/serve",
			"wimpi/internal/sql/...",
		}},
		{CostAccounting, []string{"wimpi/internal/exec/...", "wimpi/internal/spill"}},
		{PathCost, []string{"wimpi/internal/exec/...", "wimpi/internal/spill"}},
		{HotAlloc, []string{"wimpi/internal/exec/...", "wimpi/internal/plan"}},
		{Exhaustive, []string{"wimpi/internal/sql/...", "wimpi/internal/plan", "wimpi/internal/exec/..."}},
		{CtxCheck, []string{"wimpi/internal/cluster/...", "wimpi/internal/spill"}},
		{Goroutines, []string{"wimpi/internal/exec/...", "wimpi/internal/plan", "wimpi/internal/serve"}},
		{CloseCheck, []string{
			"wimpi/internal/cluster/...",
			"wimpi/internal/exec/...",
			"wimpi/internal/plan",
			"wimpi/internal/serve",
			"wimpi/internal/sql/...",
		}},
	}
}

// knownAnalyzerNames is every analyzer name the suite can run, plus the
// two pseudo-analyzers that report on directives themselves. The
// unuseddirective audit uses it to tell "scoped out of this package"
// from "typo".
var knownAnalyzerNames = map[string]bool{
	"determinism":     true,
	"taintflow":       true,
	"costaccounting":  true,
	"pathcost":        true,
	"hotalloc":        true,
	"exhaustive":      true,
	"ctxcheck":        true,
	"goroutines":      true,
	"closecheck":      true,
	"directive":       true,
	"unuseddirective": true,
}

// AnalyzersFor returns the suite analyzers scoped to pkgPath.
func AnalyzersFor(pkgPath string) []*Analyzer {
	var out []*Analyzer
	for _, sa := range Suite() {
		for _, pat := range sa.Packages {
			if matchScope(pkgPath, pat) {
				out = append(out, sa.Analyzer)
				break
			}
		}
	}
	return out
}

// matchScope implements exact and subtree ("pkg/...") matching.
func matchScope(pkgPath, pat string) bool {
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/")
	}
	return pkgPath == pat
}
