// Package sql implements a SQL frontend for the WimPi engine: a
// stdlib-only lexer and recursive-descent parser for the TPC-H dialect,
// a catalog binder, a lowering pass onto the engine's plan operators,
// and a cost-based optimizer that orders join pipelines, predicts build
// strategies from catalog statistics and places sideways key filters.
//
// Lowering is canonical: the first FROM item is the probe spine, later
// FROM items attach as hash-join build sides in text order, and WHERE
// conjuncts classify into scan predicates, join edges, semi/anti joins,
// and residual filters. The optimizer then permutes steps only within
// windows where reordering provably cannot change result bytes, so a
// SQL statement always produces output byte-identical to the
// corresponding hand-built plan regardless of cost-model decisions.
package sql

import (
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/plan"
)

// Options configures planning.
type Options struct {
	// LLCBytes is the last-level-cache budget used to predict join build
	// strategies. Zero selects the engine default; negative disables
	// cache-aware predictions (matching plan.Context semantics).
	LLCBytes int64
	// NoOpt disables the optimizer — step reordering and key filters;
	// lowering stays canonical (statement text order).
	NoOpt bool
	// UniqueKeys declares base-table unique keys, e.g. tpch.TableKeys().
	// Joins whose build keys form a unique key are order-safe and become
	// candidates for reordering.
	UniqueKeys map[string][]string
}

// Planned is a compiled statement: an executable plan tree plus the
// optimizer's decision report for EXPLAIN.
type Planned struct {
	Node   plan.Node
	Report *Report
}

// Plan parses, binds, lowers and optimizes one SQL statement against a
// catalog. The returned plan runs through engine.DB.RunQuery (or
// plan.RunContext) like any hand-built tree; CTEs memoize per Plan call,
// so re-plan for each independent run.
func Plan(cat plan.Catalog, text string, o Options) (*Planned, error) {
	stmt, err := Parse(text)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	pl := &planner{
		cat:   cat,
		keys:  o.UniqueKeys,
		ctes:  make(map[string]*cteInfo),
		st:    &stats{cat: cat, ctr: &exec.Counters{}},
		opt:   !o.NoOpt,
		rep:   rep,
		model: hardware.DefaultModel(),
		pi:    hardware.Pi(),
		llc:   resolveLLC(o.LLCBytes),
	}
	for i := range stmt.CTEs {
		c := &stmt.CTEs[i]
		if _, dup := pl.ctes[c.Name]; dup {
			return nil, errAt(c.Pos, "duplicate WITH name %q", c.Name)
		}
		node, bout, err := pl.lowerBlock(c.Sel, nil)
		if err != nil {
			return nil, err
		}
		pl.ctes[c.Name] = &cteInfo{
			name: c.Name,
			cols: bout.cols,
			ukey: bout.ukey,
			memo: &memoNode{name: c.Name, inner: node, shared: tableRefs(stmt, c.Name) > 1},
			rows: bout.rows,
		}
	}
	node, _, err := pl.lowerBlock(stmt.Sel, nil)
	if err != nil {
		return nil, err
	}
	return &Planned{Node: node, Report: rep}, nil
}

// resolveLLC mirrors plan.Context's LLC handling so the planner's
// strategy predictions match what the executor will actually do: zero
// means the engine default, negative disables cache-aware paths.
func resolveLLC(llc int64) int64 {
	if llc == 0 {
		return plan.DefaultLLCBytes
	}
	if llc < 0 {
		return 0
	}
	return llc
}
