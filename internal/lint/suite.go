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

// Suite is the wimpi-lint analyzer suite, five analyzers with their
// package scopes:
//
//   - taintflow guards every package that produces (or partitions)
//     query results: kernels, the engine, the column store, plan
//     operators, the cluster layer whose partition generation and
//     merges must be byte-identical across nodes and re-dispatches, the
//     obs layer whose span counters feed EXPLAIN ANALYZE, and the SQL
//     frontend whose plan choices must be identical on every node that
//     plans the same shipped statement. It tracks nondeterminism from
//     source to sink, and flags global rand shuffles and NaN-oblivious
//     float comparators where they stand.
//   - pathcost guards the internal/exec subtree (exec/fused's compiled
//     row kernels included) and internal/spill, where kernels charge
//     the counters the hardware simulation consumes: every exported
//     looping kernel must charge them on every path before return. A
//     spill write that skips SpillWriteBytes makes disk I/O free in the
//     simulated comparison.
//   - exhaustive guards the packages that switch over sealed node sets:
//     sql AST nodes, plan nodes, and exec expression/predicate nodes.
//   - ctxcheck guards the cluster layer's RPC and wire protocol and the
//     spill area's file I/O, whose chunked reads and writes must stop
//     at a chunk boundary when the query is canceled.
//   - closecheck guards the cluster layer too, and (as the
//     error-discard analyzer) also guards the SQL frontend, where a
//     swallowed bind or parse error would silently plan the wrong
//     statement, and the exec, plan, and serve layers, where its
//     stricter morsel-runner rule forbids dropping a RunMorsels error
//     even with `_ =` — a dropped morsel error is a silently truncated
//     query result.
//
// Two invariants are held by measured gates instead of an analyzer:
// allocations in morsel callbacks and row loops by `make alloc-gate`,
// which counts each query's B/op and allocs/op under the default, the
// spill and the fused engine; and goroutine joins by the race detector
// and the tests that a pool, a morsel batch and the load generator
// join their workers.
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
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
		{PathCost, []string{"wimpi/internal/exec/...", "wimpi/internal/spill"}},
		{Exhaustive, []string{"wimpi/internal/sql/...", "wimpi/internal/plan", "wimpi/internal/exec/..."}},
		{CtxCheck, []string{"wimpi/internal/cluster/...", "wimpi/internal/spill"}},
		{CloseCheck, []string{
			"wimpi/internal/cluster/...",
			"wimpi/internal/exec/...",
			"wimpi/internal/plan",
			"wimpi/internal/serve",
			"wimpi/internal/sql/...",
		}},
	}
}

// knownAnalyzerName reports whether name is an analyzer of the suite or
// one of the two pseudo-analyzers that report on directives themselves.
// The unuseddirective audit uses it to tell "scoped out of this
// package" from "typo" — and a retired analyzer's name from either.
func knownAnalyzerName(name string) bool {
	if name == "directive" || name == "unuseddirective" {
		return true
	}
	for _, sa := range Suite() {
		if sa.Analyzer.Name == name {
			return true
		}
	}
	return false
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
