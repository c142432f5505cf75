package sql

import (
	"errors"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// cmpOps maps comparison spellings to executor operators.
var cmpOps = map[string]exec.CmpOp{
	"=": exec.Eq, "<>": exec.Ne, "<": exec.Lt, "<=": exec.Le, ">": exec.Gt, ">=": exec.Ge,
}

// flipOp mirrors a comparison when its operands swap sides.
func flipOp(op exec.CmpOp) exec.CmpOp {
	switch op {
	case exec.Lt:
		return exec.Gt
	case exec.Le:
		return exec.Ge
	case exec.Gt:
		return exec.Lt
	case exec.Ge:
		return exec.Le
	}
	return op
}

// numValue returns a numeric literal as float64.
func numValue(n *NumLit) float64 {
	if n.IsInt {
		return float64(n.Int)
	}
	return n.Float
}

// lowerExpr lowers a scalar expression to an executor expression.
// Aggregates are rejected; they are extracted by the group-by lowering
// before this runs.
func (pl *planner) lowerExpr(e Expr, sc scope) (exec.Expr, error) {
	switch ex := e.(type) {
	case *ColRef:
		if _, ok := sc[ex.Name]; !ok {
			return nil, errAt(ex.Pos, "unknown column %q", ex.Name)
		}
		return exec.Col{Name: ex.Name}, nil
	case *NumLit:
		return exec.ConstF{V: numValue(ex)}, nil
	case *BinExpr:
		l, err := pl.lowerExpr(ex.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := pl.lowerExpr(ex.R, sc)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "+":
			return exec.Add(l, r), nil
		case "-":
			return exec.Sub(l, r), nil
		case "*":
			return exec.Mul(l, r), nil
		case "/":
			return exec.Div(l, r), nil
		}
		return nil, errAt(ex.Pos, "operator %q is not valid in a value expression", ex.Op)
	case *CaseExpr:
		p, err := pl.lowerPred(ex.When, sc)
		if err != nil {
			return nil, err
		}
		th, err := pl.lowerExpr(ex.Then, sc)
		if err != nil {
			return nil, err
		}
		el, err := pl.lowerExpr(ex.Else, sc)
		if err != nil {
			return nil, err
		}
		return exec.CaseWhenF{Pred: p, Then: th, Else: el}, nil
	case *FuncExpr:
		switch ex.Name {
		case "year":
			arg, err := pl.lowerExpr(ex.Args[0], sc)
			if err != nil {
				return nil, err
			}
			return exec.YearExpr{Arg: arg}, nil
		case "substring":
			col := ex.Args[0].(*ColRef)
			n := ex.Args[2].(*NumLit)
			return exec.PrefixExpr{Col: col.Name, N: int(n.Int)}, nil
		case "sum", "count", "avg", "min", "max":
			return nil, errAt(ex.Pos, "aggregate function %s() is not allowed here", ex.Name)
		}
	case *StrLit, *DateLit, *IntervalLit, *SubqueryExpr,
		*NotExpr, *InExpr, *BetweenExpr, *LikeExpr:
		// Predicate and non-numeric forms; fall through to the error.
	}
	return nil, errAt(e.pos(), "unsupported value expression")
}

// foldDate folds a date-typed literal expression (date literal, plus or
// minus intervals) to a day number. ok is false when e is not a date
// literal expression at all.
func foldDate(e Expr) (int32, bool, error) {
	switch ex := e.(type) {
	case *DateLit:
		d, err := colstore.ParseDate(ex.V)
		if err != nil {
			return 0, true, errAt(ex.Pos, "bad date literal %q", ex.V)
		}
		return d, true, nil
	case *BinExpr:
		if ex.Op != "+" && ex.Op != "-" {
			return 0, false, nil
		}
		iv, ok := ex.R.(*IntervalLit)
		if !ok {
			return 0, false, nil
		}
		d, ok, err := foldDate(ex.L)
		if !ok || err != nil {
			return 0, ok, err
		}
		n := iv.N
		if ex.Op == "-" {
			n = -n
		}
		switch iv.Unit {
		case "day":
			return d + int32(n), true, nil
		case "month":
			return colstore.AddMonths(d, int(n)), true, nil
		default: // year
			return colstore.AddYears(d, int(n)), true, nil
		}
	case *ColRef, *NumLit, *StrLit, *IntervalLit, *FuncExpr, *CaseExpr,
		*NotExpr, *InExpr, *BetweenExpr, *LikeExpr, *SubqueryExpr:
		// Not a date-literal expression.
	}
	return 0, false, nil
}

// errExprCmp marks a comparison that needs computed operands: the caller
// materializes both sides with a Project and filters with a column
// comparison (Q20's availability check). Only residual (cross-relation)
// predicate positions support it.
var errExprCmp = errors.New("sql: comparison needs computed operands")

// lowerCmp lowers `L op R` to a predicate.
func (pl *planner) lowerCmp(b *BinExpr, sc scope) (exec.Pred, error) {
	op := cmpOps[b.Op]
	l, r := b.L, b.R
	// Literal op column: mirror to column op literal.
	if isLiteral(l) && !isLiteral(r) {
		l, r = r, l
		op = flipOp(op)
	}
	lc, lIsCol := l.(*ColRef)
	if lIsCol {
		bind, ok := sc[lc.Name]
		if !ok {
			return nil, errAt(lc.Pos, "unknown column %q", lc.Name)
		}
		// Column against a folded date literal.
		if d, isDate, err := foldDate(r); isDate {
			if err != nil {
				return nil, err
			}
			if bind.typ != colstore.Date {
				return nil, errAt(lc.Pos, "type mismatch: cannot compare %s and date", bind.typ)
			}
			return exec.CmpD{Column: lc.Name, Op: op, V: d}, nil
		}
		switch rv := r.(type) {
		case *NumLit:
			switch bind.typ {
			case colstore.Int64:
				if !rv.IsInt {
					return nil, errAt(rv.Pos, "cannot compare int column %q with a float literal", lc.Name)
				}
				return exec.CmpI{Column: lc.Name, Op: op, V: rv.Int}, nil
			case colstore.Float64:
				return exec.CmpF{Column: lc.Name, Op: op, V: numValue(rv)}, nil
			}
			return nil, errAt(b.Pos, "type mismatch: cannot compare %s and a number", bind.typ)
		case *StrLit:
			if bind.typ != colstore.String {
				return nil, errAt(b.Pos, "type mismatch: cannot compare %s and string", bind.typ)
			}
			switch op {
			case exec.Eq:
				return exec.StrEq{Column: lc.Name, V: rv.V}, nil
			case exec.Ne:
				return exec.StrEq{Column: lc.Name, V: rv.V, Negate: true}, nil
			}
			return nil, errAt(b.Pos, "string comparison supports only = and <>")
		case *ColRef:
			rbind, ok := sc[rv.Name]
			if !ok {
				return nil, errAt(rv.Pos, "unknown column %q", rv.Name)
			}
			if rbind.typ != bind.typ {
				return nil, errAt(b.Pos, "type mismatch: cannot compare %s and %s", bind.typ, rbind.typ)
			}
			switch bind.typ {
			case colstore.Int64:
				return exec.ColCmpI{A: lc.Name, B: rv.Name, Op: op}, nil
			case colstore.Float64:
				return exec.ColCmpF{A: lc.Name, B: rv.Name, Op: op}, nil
			case colstore.Date:
				return exec.ColCmpD{A: lc.Name, B: rv.Name, Op: op}, nil
			}
			return nil, errAt(b.Pos, "cannot compare %s columns", bind.typ)
		case *BinExpr, *DateLit, *IntervalLit, *FuncExpr, *CaseExpr,
			*NotExpr, *InExpr, *BetweenExpr, *LikeExpr, *SubqueryExpr:
			// Dates folded above; computed operands surface errExprCmp.
		}
	}
	return nil, errExprCmp
}

// isLiteral reports whether e is a constant (no column references).
func isLiteral(e Expr) bool {
	switch ex := e.(type) {
	case *NumLit, *StrLit, *DateLit, *IntervalLit:
		return true
	case *BinExpr:
		return isLiteral(ex.L) && isLiteral(ex.R)
	case *ColRef, *FuncExpr, *CaseExpr, *NotExpr, *InExpr, *BetweenExpr,
		*LikeExpr, *SubqueryExpr:
		// Column-dependent or computed at run time.
	}
	return false
}

// lowerPred lowers a boolean expression to a predicate. Comparisons that
// need computed operands surface errExprCmp; callers in residual
// positions handle it, everywhere else it is a user error.
func (pl *planner) lowerPred(e Expr, sc scope) (exec.Pred, error) {
	switch ex := e.(type) {
	case *BinExpr:
		switch ex.Op {
		case "and":
			var ps []exec.Pred
			for _, c := range flattenAnd(ex) {
				p, err := pl.lowerPred(c, sc)
				if err != nil {
					return nil, err
				}
				ps = append(ps, p)
			}
			return exec.AndOf(fuseDateRanges(ps)...), nil
		case "or":
			var ps []exec.Pred
			for _, c := range flattenOr(ex) {
				p, err := pl.lowerPred(c, sc)
				if err != nil {
					return nil, err
				}
				ps = append(ps, p)
			}
			return exec.OrOf(ps...), nil
		default:
			return pl.lowerCmp(ex, sc)
		}
	case *InExpr:
		if ex.Sub != nil {
			return nil, errAt(ex.Pos, "IN subquery is not valid in this position")
		}
		col, ok := ex.E.(*ColRef)
		if !ok {
			return nil, errAt(ex.E.pos(), "IN needs a plain column on the left")
		}
		bind, okc := sc[col.Name]
		if !okc {
			return nil, errAt(col.Pos, "unknown column %q", col.Name)
		}
		if ex.Negate {
			return nil, errAt(ex.Pos, "NOT IN with a value list is not supported")
		}
		switch bind.typ {
		case colstore.String:
			vals := make([]string, len(ex.List))
			for i, v := range ex.List {
				s, oks := v.(*StrLit)
				if !oks {
					return nil, errAt(v.pos(), "IN list for a string column needs string literals")
				}
				vals[i] = s.V
			}
			return exec.StrIn{Column: col.Name, Vals: vals}, nil
		case colstore.Int64:
			ps := make([]exec.Pred, len(ex.List))
			for i, v := range ex.List {
				n, okn := v.(*NumLit)
				if !okn || !n.IsInt {
					return nil, errAt(v.pos(), "IN list for an int column needs integer literals")
				}
				ps[i] = exec.CmpI{Column: col.Name, Op: exec.Eq, V: n.Int}
			}
			return exec.OrOf(ps...), nil
		}
		return nil, errAt(ex.Pos, "IN lists support string and int columns, not %s", bind.typ)
	case *BetweenExpr:
		col, ok := ex.E.(*ColRef)
		if !ok {
			return nil, errAt(ex.E.pos(), "BETWEEN needs a plain column on the left")
		}
		bind, okc := sc[col.Name]
		if !okc {
			return nil, errAt(col.Pos, "unknown column %q", col.Name)
		}
		switch bind.typ {
		case colstore.Float64:
			lo, okl := ex.Lo.(*NumLit)
			hi, okh := ex.Hi.(*NumLit)
			if !okl || !okh {
				return nil, errAt(ex.Pos, "BETWEEN bounds must be numeric literals")
			}
			return exec.FloatRange{Column: col.Name, Lo: numValue(lo), Hi: numValue(hi)}, nil
		case colstore.Int64:
			lo, okl := ex.Lo.(*NumLit)
			hi, okh := ex.Hi.(*NumLit)
			if !okl || !okh || !lo.IsInt || !hi.IsInt {
				return nil, errAt(ex.Pos, "BETWEEN bounds must be integer literals")
			}
			return exec.AndOf(
				exec.CmpI{Column: col.Name, Op: exec.Ge, V: lo.Int},
				exec.CmpI{Column: col.Name, Op: exec.Le, V: hi.Int},
			), nil
		case colstore.Date:
			lo, okl, err := foldDate(ex.Lo)
			if err != nil {
				return nil, err
			}
			hi, okh, err := foldDate(ex.Hi)
			if err != nil {
				return nil, err
			}
			if !okl || !okh {
				return nil, errAt(ex.Pos, "BETWEEN bounds must be date literals")
			}
			return exec.AndOf(
				exec.CmpD{Column: col.Name, Op: exec.Ge, V: lo},
				exec.CmpD{Column: col.Name, Op: exec.Le, V: hi},
			), nil
		}
		return nil, errAt(ex.Pos, "BETWEEN supports numeric and date columns, not %s", bind.typ)
	case *LikeExpr:
		col, ok := ex.E.(*ColRef)
		if !ok {
			return nil, errAt(ex.E.pos(), "LIKE needs a plain column on the left")
		}
		bind, okc := sc[col.Name]
		if !okc {
			return nil, errAt(col.Pos, "unknown column %q", col.Name)
		}
		if bind.typ != colstore.String {
			return nil, errAt(ex.Pos, "LIKE needs a string column, got %s", bind.typ)
		}
		return exec.Like{Column: col.Name, Pattern: ex.Pattern, Negate: ex.Negate}, nil
	case *NotExpr:
		return nil, errAt(ex.Pos, "NOT is supported only as NOT IN and NOT LIKE")
	case *ColRef, *NumLit, *StrLit, *DateLit, *IntervalLit, *FuncExpr,
		*CaseExpr, *SubqueryExpr:
		// Value forms; fall through to the error below.
	}
	return nil, errAt(e.pos(), "expected a boolean predicate")
}

// flattenAnd returns the conjuncts of e in text order.
func flattenAnd(e Expr) []Expr {
	if b, ok := e.(*BinExpr); ok && b.Op == "and" {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Expr{e}
}

// flattenOr returns the disjuncts of e in text order.
func flattenOr(e Expr) []Expr {
	if b, ok := e.(*BinExpr); ok && b.Op == "or" {
		return append(flattenOr(b.L), flattenOr(b.R)...)
	}
	return []Expr{e}
}

// fuseDateRanges rewrites a `col >= lo` / `col < hi` conjunct pair into
// the engine's half-open DateRange predicate, one kernel per date window.
func fuseDateRanges(ps []exec.Pred) []exec.Pred {
	out := make([]exec.Pred, 0, len(ps))
	used := make([]bool, len(ps))
	for i, p := range ps {
		if used[i] {
			continue
		}
		lo, ok := p.(exec.CmpD)
		if !ok || lo.Op != exec.Ge {
			out = append(out, p)
			continue
		}
		fused := false
		for j := i + 1; j < len(ps); j++ {
			if used[j] {
				continue
			}
			hi, okh := ps[j].(exec.CmpD)
			if okh && hi.Op == exec.Lt && hi.Column == lo.Column {
				out = append(out, exec.DateRange{Column: lo.Column, Lo: lo.V, Hi: hi.V})
				used[j] = true
				fused = true
				break
			}
		}
		if !fused {
			out = append(out, p)
		}
	}
	return out
}
