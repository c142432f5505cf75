package sql

import (
	"fmt"
	"strings"
)

// Stmt is a parsed statement: optional WITH clause plus a select block.
type Stmt struct {
	CTEs []CTE
	Sel  *SelectBlock
}

// CTE is one WITH entry.
type CTE struct {
	Name string
	Sel  *SelectBlock
	Pos  Pos
}

// SelectBlock is one SELECT ... FROM ... query block.
type SelectBlock struct {
	Items   []SelectItem
	From    []FromItem
	Where   Expr // nil when absent
	GroupBy []Ident
	Having  Expr
	OrderBy []OrderKey
	Limit   int // -1 when absent
	Pos     Pos
}

// SelectItem is one select-list entry.
type SelectItem struct {
	Expr  Expr
	Alias string // "" when none
	Pos   Pos
}

// FromItem is one FROM entry: a named table (base or CTE) or a derived
// table. JoinLeft marks a `left join ... on ...` item.
type FromItem struct {
	Table    string // "" for derived tables
	Sub      *SelectBlock
	Alias    string
	JoinLeft bool
	On       Expr // only for JoinLeft items
	Pos      Pos
}

// Ident is a positioned identifier (GROUP BY keys).
type Ident struct {
	Name string
	Pos  Pos
}

// OrderKey is one ORDER BY entry.
type OrderKey struct {
	Name string
	Desc bool
	Pos  Pos
}

// Expr is a parsed expression.
type Expr interface {
	fmt.Stringer
	pos() Pos
}

// ColRef is a bare column reference.
type ColRef struct {
	Name string
	Pos  Pos
}

// NumLit is a numeric literal; the source text is kept verbatim so the
// printer round-trips exactly.
type NumLit struct {
	Text  string
	IsInt bool
	Int   int64
	Float float64
	Pos   Pos
}

// StrLit is a string literal.
type StrLit struct {
	V   string
	Pos Pos
}

// DateLit is date 'yyyy-mm-dd'.
type DateLit struct {
	V   string
	Pos Pos
}

// IntervalLit is interval 'n' day|month|year.
type IntervalLit struct {
	N    int64
	Unit string
	Pos  Pos
}

// BinExpr is a binary operation: arithmetic (+ - * /), comparison
// (= <> < <= > >=), or boolean (and, or).
type BinExpr struct {
	Op   string
	L, R Expr
	Pos  Pos
}

// NotExpr is boolean negation.
type NotExpr struct {
	E   Expr
	Pos Pos
}

// InExpr is `e [not] in (list)` or `e [not] in (select ...)`.
type InExpr struct {
	E      Expr
	List   []Expr
	Sub    *SelectBlock
	Negate bool
	Pos    Pos
}

// BetweenExpr is `e between lo and hi` (inclusive).
type BetweenExpr struct {
	E, Lo, Hi Expr
	Pos       Pos
}

// LikeExpr is `e [not] like 'pattern'`.
type LikeExpr struct {
	E       Expr
	Pattern string
	Negate  bool
	Pos     Pos
}

// CaseExpr is the single-branch `case when p then a else b end`.
type CaseExpr struct {
	When       Expr
	Then, Else Expr
	Pos        Pos
}

// FuncExpr is a call: sum, count, avg, min, max, year, substring.
// count(*) has nil Args.
type FuncExpr struct {
	Name string
	Args []Expr
	Pos  Pos
}

// SubqueryExpr is a scalar subquery in expression position.
type SubqueryExpr struct {
	Sel *SelectBlock
	Pos Pos
}

func (e *ColRef) pos() Pos       { return e.Pos }
func (e *NumLit) pos() Pos       { return e.Pos }
func (e *StrLit) pos() Pos       { return e.Pos }
func (e *DateLit) pos() Pos      { return e.Pos }
func (e *IntervalLit) pos() Pos  { return e.Pos }
func (e *BinExpr) pos() Pos      { return e.Pos }
func (e *NotExpr) pos() Pos      { return e.Pos }
func (e *InExpr) pos() Pos       { return e.Pos }
func (e *BetweenExpr) pos() Pos  { return e.Pos }
func (e *LikeExpr) pos() Pos     { return e.Pos }
func (e *CaseExpr) pos() Pos     { return e.Pos }
func (e *FuncExpr) pos() Pos     { return e.Pos }
func (e *SubqueryExpr) pos() Pos { return e.Pos }

// quoteStr renders a string literal with ” escaping.
func quoteStr(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func (e *ColRef) String() string  { return e.Name }
func (e *NumLit) String() string  { return e.Text }
func (e *StrLit) String() string  { return quoteStr(e.V) }
func (e *DateLit) String() string { return "date " + quoteStr(e.V) }
func (e *IntervalLit) String() string {
	return fmt.Sprintf("interval '%d' %s", e.N, e.Unit)
}

// prec returns the printer precedence of an expression, mirroring the
// parser's levels so String() parenthesizes exactly where reparsing
// needs it.
func prec(e Expr) int {
	switch ex := e.(type) {
	case *BinExpr:
		switch ex.Op {
		case "or":
			return 1
		case "and":
			return 2
		case "=", "<>", "<", "<=", ">", ">=":
			return 4
		case "+", "-":
			return 5
		default: // * /
			return 6
		}
	case *NotExpr:
		return 3
	case *InExpr, *BetweenExpr, *LikeExpr:
		return 4
	case *ColRef, *NumLit, *StrLit, *DateLit, *IntervalLit, *FuncExpr,
		*CaseExpr, *SubqueryExpr:
		return 7 // atoms and postfix forms bind tightest
	}
	return 7
}

// child renders a subexpression of a parent with precedence p,
// parenthesizing when binding would change on reparse.
func child(e Expr, p int) string {
	if prec(e) < p {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// rightChild is child for the right operand of a left-associative
// operator: equal precedence needs parentheses there.
func rightChild(e Expr, p int) string {
	if prec(e) <= p {
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (e *BinExpr) String() string {
	p := prec(e)
	return child(e.L, p) + " " + e.Op + " " + rightChild(e.R, p)
}

func (e *NotExpr) String() string { return "not " + child(e.E, prec(e)+1) }

func (e *InExpr) String() string {
	var sb strings.Builder
	sb.WriteString(child(e.E, 5))
	if e.Negate {
		sb.WriteString(" not")
	}
	sb.WriteString(" in (")
	if e.Sub != nil {
		sb.WriteString(e.Sub.String())
	} else {
		for i, v := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
	}
	sb.WriteString(")")
	return sb.String()
}

func (e *BetweenExpr) String() string {
	return child(e.E, 5) + " between " + child(e.Lo, 5) + " and " + child(e.Hi, 5)
}

func (e *LikeExpr) String() string {
	s := child(e.E, 5)
	if e.Negate {
		s += " not"
	}
	return s + " like " + quoteStr(e.Pattern)
}

func (e *CaseExpr) String() string {
	return "case when " + e.When.String() + " then " + e.Then.String() +
		" else " + e.Else.String() + " end"
}

func (e *FuncExpr) String() string {
	if e.Name == "count" && len(e.Args) == 0 {
		return "count(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

func (e *SubqueryExpr) String() string { return "(" + e.Sel.String() + ")" }

// String renders the block as canonical SQL text; parsing it again
// yields a structurally identical block (round-trip stability, asserted
// by FuzzParser).
func (b *SelectBlock) String() string {
	var sb strings.Builder
	sb.WriteString("select ")
	for i, it := range b.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" as " + it.Alias)
		}
	}
	sb.WriteString(" from ")
	for i, f := range b.From {
		if f.JoinLeft {
			sb.WriteString(" left join ")
		} else if i > 0 {
			sb.WriteString(", ")
		}
		if f.Sub != nil {
			sb.WriteString("(" + f.Sub.String() + ")")
		} else {
			sb.WriteString(f.Table)
		}
		if f.Alias != "" {
			sb.WriteString(" as " + f.Alias)
		}
		if f.JoinLeft && f.On != nil {
			sb.WriteString(" on " + f.On.String())
		}
	}
	if b.Where != nil {
		sb.WriteString(" where " + b.Where.String())
	}
	if len(b.GroupBy) > 0 {
		sb.WriteString(" group by ")
		for i, g := range b.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.Name)
		}
	}
	if b.Having != nil {
		sb.WriteString(" having " + b.Having.String())
	}
	if len(b.OrderBy) > 0 {
		sb.WriteString(" order by ")
		for i, k := range b.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k.Name)
			if k.Desc {
				sb.WriteString(" desc")
			}
		}
	}
	if b.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" limit %d", b.Limit))
	}
	return sb.String()
}

// String renders the statement as canonical SQL text.
func (s *Stmt) String() string {
	var sb strings.Builder
	if len(s.CTEs) > 0 {
		sb.WriteString("with ")
		for i, c := range s.CTEs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name + " as (" + c.Sel.String() + ")")
		}
		sb.WriteString(" ")
	}
	sb.WriteString(s.Sel.String())
	return sb.String()
}
