package sql

import (
	"slices"

	"wimpi/internal/exec"
	"wimpi/internal/plan"
)

// join returns j, with the optimizer on and j an inner or semi join, with
// a plan.KeyFilter on its build keys at the deepest point of its build
// side where dropping the rows whose key has no partner among j's probe
// keys cannot change a byte of j's output. Whether the filter does
// anything is decided per run, from exact cardinalities.
func (pl *planner) join(j *plan.HashJoin) plan.Node {
	if !pl.opt || (j.Kind != plan.Inner && j.Kind != plan.Semi) {
		return j
	}
	slot, keys := &j.Build, j.BuildKeys
	var exact []string
	for {
		next, k, e, ok := below(*slot, keys, exact)
		if !ok {
			break
		}
		slot, keys, exact = next, k, e
	}
	j.Sideways = &plan.KeySet{From: j.ProbeKeys}
	*slot = &plan.KeyFilter{Input: *slot, Keys: keys, Exact: exact, Set: j.Sideways}
	return j
}

// below reports whether a key filter above n may move beneath it, and
// returns n's input slot with the filter's key and exact-sum columns
// named as they are there. A filter passes
//
//   - a Filter;
//   - a Project that passes each of its columns through unchanged;
//   - a GroupBy on all of its key columns — the rows it drops are then
//     whole groups — whose aggregates come out the same without other
//     groups' rows: count, sumi, min and max do, a sum or average does
//     when its argument is a plain column whose values the filter checks
//     at run time (plan.KeyFilter.Exact);
//   - the memo of a CTE the statement references once.
//
// Anything else stops it: a join, a sort or limit, a shared CTE, a scan.
func below(n plan.Node, keys, exact []string) (*plan.Node, []string, []string, bool) {
	//lint:allow exhaustive -- any operator not listed stops the walk
	switch v := n.(type) {
	case *plan.Filter:
		return &v.Input, keys, exact, true
	case *plan.Project:
		k, okK := projectedFrom(v.Cols, keys)
		e, okE := projectedFrom(v.Cols, exact)
		return &v.Input, k, e, okK && okE
	case *plan.GroupBy:
		if !subset(keys, v.Keys) || !subset(exact, v.Keys) {
			return nil, nil, nil, false
		}
		exact = slices.Clone(exact)
		for _, a := range v.Aggs {
			if a.Func == plan.Sum || a.Func == plan.Avg {
				c, ok := a.Arg.(exec.Col)
				if !ok {
					return nil, nil, nil, false
				}
				exact = dedupAppend(exact, c.Name)
			}
		}
		return &v.Input, keys, exact, true
	case *memoNode:
		return &v.inner, keys, exact, !v.shared
	}
	return nil, nil, nil, false
}

// projectedFrom names the input column a projection passes through
// unchanged under each of names; false when one is computed.
func projectedFrom(cols []plan.NamedExpr, names []string) ([]string, bool) {
	out := make([]string, len(names))
	for i, name := range names {
		for _, ne := range cols {
			if c, ok := ne.Expr.(exec.Col); ok && ne.Name == name {
				out[i] = c.Name
			}
		}
		if out[i] == "" {
			return nil, false
		}
	}
	return out, true
}

// subset reports whether every name is one of set.
func subset(names, set []string) bool {
	for _, n := range names {
		if !slices.Contains(set, n) {
			return false
		}
	}
	return true
}
