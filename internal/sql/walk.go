package sql

import "fmt"

// walkCols appends the column names referenced by e, in text order, to
// out. Subquery bodies are skipped: their columns bind in their own
// scope (the probe side of an IN subquery still counts).
func walkCols(e Expr, out []string) []string {
	switch ex := e.(type) {
	case *ColRef:
		return append(out, ex.Name)
	case *BinExpr:
		return walkCols(ex.R, walkCols(ex.L, out))
	case *NotExpr:
		return walkCols(ex.E, out)
	case *InExpr:
		out = walkCols(ex.E, out)
		for _, v := range ex.List {
			out = walkCols(v, out)
		}
		return out
	case *BetweenExpr:
		return walkCols(ex.Hi, walkCols(ex.Lo, walkCols(ex.E, out)))
	case *LikeExpr:
		return walkCols(ex.E, out)
	case *CaseExpr:
		return walkCols(ex.Else, walkCols(ex.Then, walkCols(ex.When, out)))
	case *FuncExpr:
		for _, a := range ex.Args {
			out = walkCols(a, out)
		}
		return out
	case *NumLit, *StrLit, *DateLit, *IntervalLit, *SubqueryExpr:
		// Literals carry no columns; subquery bodies bind in their own scope.
	}
	return out
}

// relsOf returns the distinct relation indices referenced by e, in
// first-reference order.
func relsOf(e Expr, sc scope) []int {
	var rels []int
	for _, name := range walkCols(e, nil) {
		b, ok := sc[name]
		if !ok {
			continue
		}
		seen := false
		for _, r := range rels {
			if r == b.rel {
				seen = true
			}
		}
		if !seen {
			rels = append(rels, b.rel)
		}
	}
	return rels
}

// containsAgg reports whether e contains an aggregate call.
func containsAgg(e Expr) bool {
	switch ex := e.(type) {
	case *FuncExpr:
		if isAggName(ex.Name) {
			return true
		}
		for _, a := range ex.Args {
			if containsAgg(a) {
				return true
			}
		}
	case *BinExpr:
		return containsAgg(ex.L) || containsAgg(ex.R)
	case *CaseExpr:
		return containsAgg(ex.When) || containsAgg(ex.Then) || containsAgg(ex.Else)
	case *NotExpr:
		return containsAgg(ex.E)
	case *BetweenExpr:
		return containsAgg(ex.E) || containsAgg(ex.Lo) || containsAgg(ex.Hi)
	case *LikeExpr:
		return containsAgg(ex.E)
	case *InExpr:
		return containsAgg(ex.E)
	case *ColRef, *NumLit, *StrLit, *DateLit, *IntervalLit, *SubqueryExpr:
		// Leaves; a subquery's aggregates belong to its own lowering.
	}
	return false
}

// collectScalarSubs appends the scalar subqueries of e in text order.
// IN subqueries are not scalar: they lower to semi/anti joins.
func collectScalarSubs(e Expr, out []*SubqueryExpr) []*SubqueryExpr {
	switch ex := e.(type) {
	case *SubqueryExpr:
		return append(out, ex)
	case *BinExpr:
		return collectScalarSubs(ex.R, collectScalarSubs(ex.L, out))
	case *NotExpr:
		return collectScalarSubs(ex.E, out)
	case *BetweenExpr:
		return collectScalarSubs(ex.Hi, collectScalarSubs(ex.Lo, collectScalarSubs(ex.E, out)))
	case *CaseExpr:
		return collectScalarSubs(ex.Else, collectScalarSubs(ex.Then, collectScalarSubs(ex.When, out)))
	case *FuncExpr:
		for _, a := range ex.Args {
			out = collectScalarSubs(a, out)
		}
		return out
	case *InExpr:
		return collectScalarSubs(ex.E, out)
	case *LikeExpr:
		return collectScalarSubs(ex.E, out)
	case *ColRef, *NumLit, *StrLit, *DateLit, *IntervalLit:
		// Leaves hold no subquery.
	}
	return out
}

// evalScalar evaluates a literal/subquery arithmetic tree numerically,
// with the subquery values already resolved, in the statement's own
// association order, so the threshold has the same float bits on every
// run and every node.
func evalScalar(e Expr, resolved map[*SubqueryExpr]float64) (float64, error) {
	switch ex := e.(type) {
	case *NumLit:
		return numValue(ex), nil
	case *SubqueryExpr:
		v, ok := resolved[ex]
		if !ok {
			return 0, errAt(ex.Pos, "internal: unresolved scalar subquery")
		}
		return v, nil
	case *BinExpr:
		l, err := evalScalar(ex.L, resolved)
		if err != nil {
			return 0, err
		}
		r, err := evalScalar(ex.R, resolved)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			return l / r, nil
		}
	case *ColRef, *StrLit, *DateLit, *IntervalLit, *FuncExpr, *CaseExpr,
		*NotExpr, *InExpr, *BetweenExpr, *LikeExpr:
		// Not scalar arithmetic; fall through to the error below.
	}
	return 0, errAt(e.pos(), "scalar subquery comparisons support only literal arithmetic")
}

// dedupAppend appends name to names unless already present.
func dedupAppend(names []string, name string) []string {
	for _, n := range names {
		if n == name {
			return names
		}
	}
	return append(names, name)
}

// internalf builds an unpositioned internal error.
func internalf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format, args...)
}
