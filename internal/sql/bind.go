package sql

import (
	"wimpi/internal/colstore"
	"wimpi/internal/hardware"
	"wimpi/internal/plan"
)

// colInfo is one output column of a relation or block.
type colInfo struct {
	Name string
	Type colstore.Type
}

// relInfo is the bound form of one FROM item: its visible columns, an
// optional unique key (base-table metadata, or the GROUP BY keys of a
// derived block), and where it came from.
type relInfo struct {
	name  string // alias, or the table/CTE name
	cols  []colInfo
	ukey  []string
	table string       // base table name ("" otherwise)
	cte   *cteInfo     // non-nil for CTE references
	sub   *SelectBlock // non-nil for derived tables
	item  *FromItem
}

// cteInfo is one lowered WITH entry. The memo node is shared by every
// reference so the CTE executes once per query run.
type cteInfo struct {
	name string
	cols []colInfo
	ukey []string
	memo *memoNode
	rows float64
}

// colBind locates a column in a block scope.
type colBind struct {
	typ colstore.Type
	rel int // index into the block's relations
}

// scope maps visible column names to their binding. The dialect has no
// qualified names: every column name must be unique across the FROM
// clause (TPC-H prefixes guarantee it), and binding errors out
// otherwise.
type scope map[string]colBind

// planner lowers parsed statements against a catalog.
type planner struct {
	cat   plan.Catalog
	keys  map[string][]string // base table -> unique key columns
	ctes  map[string]*cteInfo
	st    *stats
	opt   bool
	rep   *Report
	model hardware.Model
	pi    hardware.Profile
	// running marks a planner lowering a block at run time (see atRun).
	running bool
}

// atRun returns the planner a run lowers a deferred block with, once its
// scalar subqueries have values. Runs of one plan may overlap, so it
// shares only what planning left read-only: the statistics, which charge
// no query and hold no state; it records no choices in the plan's report,
// and places no key filter inside a CTE memo, which belongs to the tree
// every run shares.
func (pl *planner) atRun() *planner {
	c := *pl
	c.rep = nil
	c.running = true
	return &c
}

// bindFrom resolves the FROM items of a block into relations and a
// combined scope.
func (pl *planner) bindFrom(b *SelectBlock) ([]relInfo, scope, error) {
	if len(b.From) == 0 {
		return nil, nil, errAt(b.Pos, "select needs a FROM clause")
	}
	rels := make([]relInfo, 0, len(b.From))
	sc := scope{}
	for i := range b.From {
		f := &b.From[i]
		var r relInfo
		r.item = f
		switch {
		case f.Sub != nil:
			cols, ukey, err := pl.blockSchema(f.Sub)
			if err != nil {
				return nil, nil, err
			}
			r = relInfo{name: f.Alias, cols: cols, ukey: ukey, sub: f.Sub, item: f}
		case f.Table != "":
			if c, ok := pl.ctes[f.Table]; ok {
				r = relInfo{name: f.Table, cols: c.cols, ukey: c.ukey, cte: c, item: f}
			} else {
				t, err := pl.cat.Table(f.Table)
				if err != nil {
					return nil, nil, errAt(f.Pos, "unknown table %q", f.Table)
				}
				cols := make([]colInfo, len(t.Schema))
				for j, fd := range t.Schema {
					cols[j] = colInfo{Name: fd.Name, Type: fd.Type}
				}
				r = relInfo{name: f.Table, cols: cols, ukey: pl.keys[f.Table], table: f.Table, item: f}
			}
			if f.Alias != "" {
				r.name = f.Alias
			}
		}
		for _, c := range r.cols {
			if prev, ok := sc[c.Name]; ok {
				return nil, nil, errAt(f.Pos, "column %q of %s is ambiguous (also in %s)",
					c.Name, r.name, rels[prev.rel].name)
			}
			sc[c.Name] = colBind{typ: c.Type, rel: i}
		}
		rels = append(rels, r)
	}
	return rels, sc, nil
}

// blockSchema resolves a block's output columns and unique key without
// building a plan. It reports the same binder diagnostics as lowering.
func (pl *planner) blockSchema(b *SelectBlock) ([]colInfo, []string, error) {
	rels, sc, err := pl.bindFrom(b)
	if err != nil {
		return nil, nil, err
	}
	_ = rels
	cols := make([]colInfo, 0, len(b.Items))
	for i := range b.Items {
		it := &b.Items[i]
		name := it.Alias
		if name == "" {
			cr, ok := it.Expr.(*ColRef)
			if !ok {
				return nil, nil, errAt(it.Pos, "select expression needs an alias (use AS)")
			}
			name = cr.Name
		}
		typ, err := pl.typeOf(it.Expr, sc, true, false)
		if err != nil {
			return nil, nil, err
		}
		for _, prev := range cols {
			if prev.Name == name {
				return nil, nil, errAt(it.Pos, "duplicate output column %q", name)
			}
		}
		cols = append(cols, colInfo{Name: name, Type: typ})
	}
	var ukey []string
	if len(b.GroupBy) > 0 {
		ukey = make([]string, 0, len(b.GroupBy))
		for _, g := range b.GroupBy {
			found := false
			for i := range b.Items {
				if outName(&b.Items[i]) == g.Name {
					found = true
					break
				}
			}
			if !found {
				return nil, nil, errAt(g.Pos, "GROUP BY column %q is not in the select list", g.Name)
			}
			ukey = append(ukey, g.Name)
		}
	}
	return cols, ukey, nil
}

// outName is the output column name of a select item.
func outName(it *SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColRef); ok {
		return cr.Name
	}
	return ""
}

// typeOf type-checks an expression against a scope. allowAgg permits
// aggregate calls at this level; inAgg marks that we are already inside
// an aggregate argument, where further aggregates are an error.
func (pl *planner) typeOf(e Expr, sc scope, allowAgg, inAgg bool) (colstore.Type, error) {
	switch ex := e.(type) {
	case *ColRef:
		b, ok := sc[ex.Name]
		if !ok {
			return 0, errAt(ex.Pos, "unknown column %q", ex.Name)
		}
		return b.typ, nil
	case *NumLit:
		if ex.IsInt {
			return colstore.Int64, nil
		}
		return colstore.Float64, nil
	case *StrLit:
		return colstore.String, nil
	case *DateLit:
		if _, err := colstore.ParseDate(ex.V); err != nil {
			return 0, errAt(ex.Pos, "bad date literal %q", ex.V)
		}
		return colstore.Date, nil
	case *IntervalLit:
		return 0, errAt(ex.Pos, "interval literal is only valid in date arithmetic")
	case *BinExpr:
		switch ex.Op {
		case "and", "or":
			for _, side := range []Expr{ex.L, ex.R} {
				t, err := pl.typeOf(side, sc, allowAgg, inAgg)
				if err != nil {
					return 0, err
				}
				if t != colstore.Bool {
					return 0, errAt(side.pos(), "%s needs boolean operands, got %s", ex.Op, t)
				}
			}
			return colstore.Bool, nil
		case "=", "<>", "<", "<=", ">", ">=":
			lt, err := pl.typeOf(ex.L, sc, allowAgg, inAgg)
			if err != nil {
				return 0, err
			}
			rt, err := pl.typeOf(ex.R, sc, allowAgg, inAgg)
			if err != nil {
				return 0, err
			}
			if !comparable2(lt, rt) {
				return 0, errAt(ex.Pos, "type mismatch: cannot compare %s and %s", lt, rt)
			}
			return colstore.Bool, nil
		default: // + - * /
			if t, ok, err := pl.dateArithType(ex); ok {
				return t, err
			}
			for _, side := range []Expr{ex.L, ex.R} {
				t, err := pl.typeOf(side, sc, allowAgg, inAgg)
				if err != nil {
					return 0, err
				}
				if t != colstore.Int64 && t != colstore.Float64 {
					return 0, errAt(side.pos(), "arithmetic needs numeric operands, got %s", t)
				}
			}
			return colstore.Float64, nil
		}
	case *NotExpr:
		t, err := pl.typeOf(ex.E, sc, allowAgg, inAgg)
		if err != nil {
			return 0, err
		}
		if t != colstore.Bool {
			return 0, errAt(ex.Pos, "not needs a boolean operand, got %s", t)
		}
		return colstore.Bool, nil
	case *InExpr:
		t, err := pl.typeOf(ex.E, sc, allowAgg, inAgg)
		if err != nil {
			return 0, err
		}
		if ex.Sub != nil {
			subCols, _, err := pl.subquerySchema(ex.Sub)
			if err != nil {
				return 0, err
			}
			if len(subCols) != 1 {
				return 0, errAt(ex.Pos, "IN subquery must select exactly one column")
			}
			if !comparable2(t, subCols[0].Type) {
				return 0, errAt(ex.Pos, "type mismatch: cannot compare %s and %s", t, subCols[0].Type)
			}
			return colstore.Bool, nil
		}
		for _, v := range ex.List {
			vt, err := pl.typeOf(v, sc, false, inAgg)
			if err != nil {
				return 0, err
			}
			if !comparable2(t, vt) {
				return 0, errAt(v.pos(), "type mismatch: cannot compare %s and %s", t, vt)
			}
		}
		return colstore.Bool, nil
	case *BetweenExpr:
		t, err := pl.typeOf(ex.E, sc, allowAgg, inAgg)
		if err != nil {
			return 0, err
		}
		for _, side := range []Expr{ex.Lo, ex.Hi} {
			st, err := pl.typeOf(side, sc, false, inAgg)
			if err != nil {
				return 0, err
			}
			if !comparable2(t, st) {
				return 0, errAt(side.pos(), "type mismatch: cannot compare %s and %s", t, st)
			}
		}
		return colstore.Bool, nil
	case *LikeExpr:
		t, err := pl.typeOf(ex.E, sc, allowAgg, inAgg)
		if err != nil {
			return 0, err
		}
		if t != colstore.String {
			return 0, errAt(ex.Pos, "like needs a string operand, got %s", t)
		}
		return colstore.Bool, nil
	case *CaseExpr:
		wt, err := pl.typeOf(ex.When, sc, allowAgg, inAgg)
		if err != nil {
			return 0, err
		}
		if wt != colstore.Bool {
			return 0, errAt(ex.When.pos(), "case condition must be boolean, got %s", wt)
		}
		for _, side := range []Expr{ex.Then, ex.Else} {
			t, err := pl.typeOf(side, sc, allowAgg, inAgg)
			if err != nil {
				return 0, err
			}
			if t != colstore.Int64 && t != colstore.Float64 {
				return 0, errAt(side.pos(), "case branches must be numeric, got %s", t)
			}
		}
		return colstore.Float64, nil
	case *FuncExpr:
		switch ex.Name {
		case "sum", "avg", "min", "max", "count", "sumi":
			if inAgg {
				return 0, errAt(ex.Pos, "aggregate function %s() cannot be nested inside another aggregate", ex.Name)
			}
			if !allowAgg {
				return 0, errAt(ex.Pos, "aggregate function %s() is not allowed here", ex.Name)
			}
			if ex.Name == "count" {
				if len(ex.Args) > 1 {
					return 0, errAt(ex.Pos, "count() takes at most one argument")
				}
				if len(ex.Args) == 1 {
					if _, err := pl.typeOf(ex.Args[0], sc, false, true); err != nil {
						return 0, err
					}
				}
				return colstore.Int64, nil
			}
			if len(ex.Args) != 1 {
				return 0, errAt(ex.Pos, "%s() takes exactly one argument", ex.Name)
			}
			t, err := pl.typeOf(ex.Args[0], sc, false, true)
			if err != nil {
				return 0, err
			}
			if t != colstore.Int64 && t != colstore.Float64 {
				return 0, errAt(ex.Args[0].pos(), "%s() needs a numeric argument, got %s", ex.Name, t)
			}
			if ex.Name == "sumi" {
				if t != colstore.Int64 {
					return 0, errAt(ex.Args[0].pos(), "sumi() needs an int argument, got %s", t)
				}
				return colstore.Int64, nil
			}
			return colstore.Float64, nil
		case "year":
			if len(ex.Args) != 1 {
				return 0, errAt(ex.Pos, "year() takes exactly one argument")
			}
			t, err := pl.typeOf(ex.Args[0], sc, allowAgg, inAgg)
			if err != nil {
				return 0, err
			}
			if t != colstore.Date {
				return 0, errAt(ex.Args[0].pos(), "year() needs a date argument, got %s", t)
			}
			return colstore.Int64, nil
		case "substring":
			if len(ex.Args) != 3 {
				return 0, errAt(ex.Pos, "substring() takes (column, start, length)")
			}
			t, err := pl.typeOf(ex.Args[0], sc, false, inAgg)
			if err != nil {
				return 0, err
			}
			if t != colstore.String {
				return 0, errAt(ex.Args[0].pos(), "substring() needs a string column, got %s", t)
			}
			if _, ok := ex.Args[0].(*ColRef); !ok {
				return 0, errAt(ex.Args[0].pos(), "substring() needs a plain column reference")
			}
			one, ok1 := ex.Args[1].(*NumLit)
			n, ok2 := ex.Args[2].(*NumLit)
			if !ok1 || !ok2 || !one.IsInt || !n.IsInt || one.Int != 1 || n.Int < 1 {
				return 0, errAt(ex.Pos, "substring() supports only substring(col, 1, n) prefixes")
			}
			return colstore.String, nil
		}
		return 0, errAt(ex.Pos, "unknown function %q", ex.Name)
	case *SubqueryExpr:
		subCols, _, err := pl.subquerySchema(ex.Sel)
		if err != nil {
			return 0, err
		}
		if len(subCols) != 1 {
			return 0, errAt(ex.Pos, "scalar subquery must select exactly one column")
		}
		return colstore.Float64, nil
	}
	return 0, errAt(e.pos(), "unsupported expression")
}

// dateArithType recognizes date +/- interval arithmetic, which is typed
// as a date rather than a float. It must run before the generic numeric
// arithmetic check because bare interval literals are otherwise errors.
func (pl *planner) dateArithType(ex *BinExpr) (colstore.Type, bool, error) {
	if ex.Op != "+" && ex.Op != "-" {
		return 0, false, nil
	}
	if _, ok := ex.R.(*IntervalLit); !ok {
		return 0, false, nil
	}
	if _, ok, err := foldDate(ex); ok {
		return colstore.Date, true, err
	}
	return 0, true, errAt(ex.Pos, "date arithmetic needs a date literal on the left of the interval")
}

// subquerySchema resolves a subquery block's output schema.
func (pl *planner) subquerySchema(b *SelectBlock) ([]colInfo, []string, error) {
	return pl.blockSchema(b)
}

// comparable2 reports whether two types can be compared. Int and float
// compare (counts against literals, int columns against float
// thresholds); everything else needs matching types.
func comparable2(a, b colstore.Type) bool {
	if a == b {
		return true
	}
	num := func(t colstore.Type) bool { return t == colstore.Int64 || t == colstore.Float64 }
	return num(a) && num(b)
}
