package plan

// The column analyses shared by the fused compiler, the vector
// operators that read their input through views, and the SQL planner.

import "wimpi/internal/exec"

// PredCols lists the column names a predicate reads, reporting false for
// predicate types it cannot analyze: a fused pipeline breaks at such a
// filter, and a lazy Filter materializes its whole input for it. The
// planner's selectivity estimate samples only these columns.
func PredCols(p exec.Pred) ([]string, bool) {
	switch v := p.(type) {
	case exec.CmpI:
		return []string{v.Column}, true
	case exec.CmpF:
		return []string{v.Column}, true
	case exec.CmpD:
		return []string{v.Column}, true
	case exec.DateRange:
		return []string{v.Column}, true
	case exec.FloatRange:
		return []string{v.Column}, true
	case exec.StrEq:
		return []string{v.Column}, true
	case exec.StrIn:
		return []string{v.Column}, true
	case exec.InI:
		return []string{v.Column}, true
	case exec.Like:
		return []string{v.Column}, true
	case exec.ColCmpD:
		return []string{v.A, v.B}, true
	case exec.ColCmpI:
		return []string{v.A, v.B}, true
	case exec.ColCmpF:
		return []string{v.A, v.B}, true
	case exec.And:
		return predListCols(v.Preds)
	case exec.Or:
		return predListCols(v.Preds)
	case exec.TruePred:
		return nil, true
	default:
		return nil, false
	}
}

func predListCols(ps []exec.Pred) ([]string, bool) {
	var out []string
	for _, p := range ps {
		cs, ok := PredCols(p)
		if !ok {
			return nil, false
		}
		out = append(out, cs...)
	}
	return dedupNames(out), true
}

// exprCols lists the column names an expression reads, reporting false
// for expression types it cannot analyze: a fused pipeline rejects
// such a projection, and a lazy Project materializes its whole input
// for it.
func exprCols(e exec.Expr) ([]string, bool) {
	switch v := e.(type) {
	case exec.Col:
		return []string{v.Name}, true
	case exec.ConstF:
		return nil, true
	case exec.Arith:
		l, ok := exprCols(v.L)
		if !ok {
			return nil, false
		}
		r, ok := exprCols(v.R)
		if !ok {
			return nil, false
		}
		return dedupNames(append(l, r...)), true
	case exec.YearExpr:
		return exprCols(v.Arg)
	case exec.PrefixExpr:
		return []string{v.Col}, true
	case exec.CaseWhenF:
		p, ok := PredCols(v.Pred)
		if !ok {
			return nil, false
		}
		t, ok := exprCols(v.Then)
		if !ok {
			return nil, false
		}
		el, ok := exprCols(v.Else)
		if !ok {
			return nil, false
		}
		return dedupNames(append(append(p, t...), el...)), true
	default:
		return nil, false
	}
}

// casePredCols lists the columns the predicates of e's CASE expressions
// read.
func casePredCols(e exec.Expr) []string {
	switch v := e.(type) {
	case exec.Arith:
		return append(casePredCols(v.L), casePredCols(v.R)...)
	case exec.YearExpr:
		return casePredCols(v.Arg)
	case exec.CaseWhenF:
		p, _ := PredCols(v.Pred)
		return append(append(p, casePredCols(v.Then)...), casePredCols(v.Else)...)
	case exec.Col, exec.ConstF, exec.PrefixExpr:
	}
	return nil
}

func dedupNames(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
