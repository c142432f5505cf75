package sql

import (
	"errors"
	"fmt"
	"sort"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/plan"
)

// blockOut describes a lowered block's output for enclosing blocks: its
// schema, unique key (if any), and estimated cardinality.
type blockOut struct {
	cols []colInfo
	ukey []string
	rows float64
}

// stepKind classifies one pipeline step applied to a block's spine.
type stepKind uint8

const (
	// stepInner attaches a relation as a hash-join build side.
	stepInner stepKind = iota
	// stepSemi keeps spine rows with a match in an IN subquery.
	stepSemi
	// stepAnti keeps spine rows without a match in a NOT IN subquery.
	stepAnti
	// stepResidual filters the joined rows with a predicate.
	stepResidual
	// stepProjCmp filters on a comparison of two computed expressions,
	// materialized by a projection first.
	stepProjCmp
)

// step is one operation applied to the spine, in canonical text order.
// The optimizer may permute steps within byte-safe windows; the fields
// beyond the operator itself feed the cost model and the legality check.
type step struct {
	kind  stepKind
	pos   int // index of the defining WHERE conjunct (canonical order)
	label string

	rel                  int // relation index for stepInner
	buildNode            plan.Node
	buildKeys, probeKeys []string
	unique               bool // build keys form the build side's unique key

	pred exec.Pred // stepResidual

	lExpr, rExpr exec.Expr // stepProjCmp
	cmpOp        exec.CmpOp

	needs     []string // columns that must be available before this step
	provides  []string // columns introduced by this step
	buildRows float64
	buildCols int
	sel       float64 // estimated spine-row retention
}

// lowerBlock lowers one select block to a plan. resolved carries scalar
// subquery values on the second pass of deferred lowering; nil on the
// first pass.
func (pl *planner) lowerBlock(b *SelectBlock, resolved map[*SubqueryExpr]float64) (plan.Node, blockOut, error) {
	outCols, outUkey, err := pl.blockSchema(b)
	if err != nil {
		return nil, blockOut{}, err
	}
	for i := range b.From {
		if b.From[i].JoinLeft && (len(b.From) != 2 || i != 1) {
			return nil, blockOut{}, errAt(b.From[i].Pos, "left join supports exactly two FROM items")
		}
	}
	rels, sc, err := pl.bindFrom(b)
	if err != nil {
		return nil, blockOut{}, err
	}

	// Scalar subqueries defer lowering: run them first, fold the values
	// into constants, then plan the block.
	if resolved == nil {
		var subs []*SubqueryExpr
		for _, e := range []Expr{b.Where, b.Having} {
			if e == nil {
				continue
			}
			for _, c := range flattenAnd(e) {
				subs = collectScalarSubs(c, subs)
			}
		}
		if len(subs) > 0 {
			scalars := make([]scalarPlan, len(subs))
			for i, s := range subs {
				n, _, err := pl.lowerBlock(s.Sel, nil)
				if err != nil {
					return nil, blockOut{}, err
				}
				scalars[i] = scalarPlan{node: n}
			}
			build := func(vals []float64) (plan.Node, error) {
				m := make(map[*SubqueryExpr]float64, len(subs))
				for i, s := range subs {
					m[s] = vals[i]
				}
				n, _, err := pl.atRun().lowerBlock(b, m)
				return n, err
			}
			rows := 1024.0
			if rels[0].table != "" {
				rows = pl.st.tableRows(rels[0].table)
			}
			return &deferredNode{name: "select (deferred scalar subqueries)", scalars: scalars, build: build},
				blockOut{cols: outCols, ukey: outUkey, rows: rows}, nil
		}
	}

	if len(b.From) == 2 && b.From[1].JoinLeft {
		return pl.lowerLeftCount(b, rels, sc, outCols, outUkey)
	}

	nrel := len(rels)
	relPreds := make([][]exec.Pred, nrel)
	type wrapT struct {
		neg                bool
		build              plan.Node
		buildKey, probeKey string
	}
	wraps := make([][]wrapT, nrel)
	type edgeT struct {
		pos             int
		nearCol, relCol string
	}
	edges := make([][]edgeT, nrel)
	var steps []step

	var conj []Expr
	if b.Where != nil {
		conj = flattenAnd(b.Where)
	}
	for idx, c := range conj {
		// Second-pass deferred comparisons: the scalar side is now a
		// constant.
		if resolved != nil && len(collectScalarSubs(c, nil)) > 0 {
			cmp, ok := c.(*BinExpr)
			var col *ColRef
			okOp := false
			if ok {
				col, _ = cmp.L.(*ColRef)
				_, okOp = cmpOps[cmp.Op]
			}
			if col == nil || !okOp {
				return nil, blockOut{}, errAt(c.pos(), "scalar subqueries are supported only as `column <cmp> expression`")
			}
			bind, okc := sc[col.Name]
			if !okc {
				return nil, blockOut{}, errAt(col.Pos, "unknown column %q", col.Name)
			}
			if bind.typ != colstore.Float64 {
				return nil, blockOut{}, errAt(col.Pos, "scalar subquery comparison needs a float column, got %s", bind.typ)
			}
			v, err := evalScalar(cmp.R, resolved)
			if err != nil {
				return nil, blockOut{}, err
			}
			relPreds[bind.rel] = append(relPreds[bind.rel], exec.CmpF{Column: col.Name, Op: cmpOps[cmp.Op], V: v})
			continue
		}
		// IN subqueries become semi/anti joins: against the spine as a
		// pipeline step, against any other relation as a wrap of its
		// source.
		if in, ok := c.(*InExpr); ok && in.Sub != nil {
			col, okc := in.E.(*ColRef)
			if !okc {
				return nil, blockOut{}, errAt(in.E.pos(), "IN subquery needs a plain column on the left")
			}
			bind, okb := sc[col.Name]
			if !okb {
				return nil, blockOut{}, errAt(col.Pos, "unknown column %q", col.Name)
			}
			bn, bout, err := pl.lowerBlock(in.Sub, nil)
			if err != nil {
				return nil, blockOut{}, err
			}
			if len(bout.cols) != 1 {
				return nil, blockOut{}, errAt(in.Pos, "IN subquery must select exactly one column")
			}
			if !comparable2(bind.typ, bout.cols[0].Type) {
				return nil, blockOut{}, errAt(in.Pos, "type mismatch: cannot compare %s and %s", bind.typ, bout.cols[0].Type)
			}
			if bind.rel == 0 {
				k, lbl := stepSemi, "semi"
				if in.Negate {
					k, lbl = stepAnti, "anti"
				}
				steps = append(steps, step{
					kind: k, pos: idx, label: fmt.Sprintf("%s(%s)", lbl, col.Name),
					buildNode: bn, buildKeys: []string{bout.cols[0].Name}, probeKeys: []string{col.Name},
					needs: []string{col.Name}, buildRows: bout.rows, buildCols: 1, sel: 0.5,
				})
			} else {
				wraps[bind.rel] = append(wraps[bind.rel], wrapT{neg: in.Negate, build: bn, buildKey: bout.cols[0].Name, probeKey: col.Name})
			}
			continue
		}
		rs := relsOf(c, sc)
		if len(rs) <= 1 {
			r := 0
			if len(rs) == 1 {
				r = rs[0]
			}
			p, err := pl.lowerPred(c, sc)
			if errors.Is(err, errExprCmp) {
				return nil, blockOut{}, errAt(c.pos(), "comparison of computed expressions is supported only between tables")
			}
			if err != nil {
				return nil, blockOut{}, err
			}
			relPreds[r] = append(relPreds[r], p)
			continue
		}
		if a, bcol, ok := colEquality(c, sc); ok {
			later, near, rc := a, bcol.Name, a.Name
			if sc[bcol.Name].rel > sc[a.Name].rel {
				later = bcol
				near, rc = a.Name, bcol.Name
			}
			r := sc[later.Name].rel
			edges[r] = append(edges[r], edgeT{pos: idx, nearCol: near, relCol: rc})
			continue
		}
		p, err := pl.lowerPred(c, sc)
		if errors.Is(err, errExprCmp) {
			cmp := c.(*BinExpr)
			lE, lerr := pl.lowerExpr(cmp.L, sc)
			if lerr != nil {
				return nil, blockOut{}, lerr
			}
			rE, rerr := pl.lowerExpr(cmp.R, sc)
			if rerr != nil {
				return nil, blockOut{}, rerr
			}
			var needs []string
			for _, n := range walkCols(c, nil) {
				needs = dedupAppend(needs, n)
			}
			steps = append(steps, step{
				kind: stepProjCmp, pos: idx, label: "filter " + cmp.String(),
				lExpr: lE, rExpr: rE, cmpOp: cmpOps[cmp.Op], needs: needs, sel: 0.5,
			})
			continue
		}
		if err != nil {
			return nil, blockOut{}, err
		}
		var needs []string
		for _, n := range walkCols(c, nil) {
			needs = dedupAppend(needs, n)
		}
		steps = append(steps, step{kind: stepResidual, pos: idx, label: "filter " + p.String(), pred: p, needs: needs, sel: 0.5})
	}

	// Column pruning set: everything the block references by name.
	used := pl.usedCols(b)

	relNodes := make([]plan.Node, nrel)
	visCols := make([][]string, nrel)
	baseRows := make([]float64, nrel)
	filtRows := make([]float64, nrel)
	for i := range rels {
		r := &rels[i]
		preds := fuseDateRanges(relPreds[i])
		var p exec.Pred
		if len(preds) == 1 {
			p = preds[0]
		} else if len(preds) > 1 {
			p = exec.AndOf(preds...)
		}
		switch {
		case r.table != "":
			var colsSel []string
			for _, c := range r.cols {
				for _, u := range used {
					if u == c.Name {
						colsSel = append(colsSel, c.Name)
						break
					}
				}
			}
			relNodes[i] = &plan.Scan{Table: r.table, Columns: colsSel, Pred: p}
			visCols[i] = colsSel
			baseRows[i] = pl.st.tableRows(r.table)
			filtRows[i] = baseRows[i] * pl.st.predSel(r.table, p)
		default:
			var n plan.Node
			if r.cte != nil {
				n = r.cte.memo
				baseRows[i] = r.cte.rows
			} else {
				sub, bout, err := pl.lowerBlock(r.sub, nil)
				if err != nil {
					return nil, blockOut{}, err
				}
				n = sub
				baseRows[i] = bout.rows
			}
			filtRows[i] = baseRows[i]
			if p != nil {
				n = &plan.Filter{Input: n, Pred: p}
				filtRows[i] *= 0.5
			}
			relNodes[i] = n
			for _, c := range r.cols {
				visCols[i] = append(visCols[i], c.Name)
			}
		}
		for _, w := range wraps[i] {
			kind := plan.Semi
			if w.neg {
				kind = plan.Anti
			}
			relNodes[i] = pl.join(&plan.HashJoin{Kind: kind, Build: w.build, Probe: relNodes[i],
				BuildKeys: []string{w.buildKey}, ProbeKeys: []string{w.probeKey}})
			filtRows[i] *= 0.5
		}
	}

	// Relations after the first attach to the spine as hash-join builds.
	for i := 1; i < nrel; i++ {
		es := edges[i]
		if len(es) == 0 {
			return nil, blockOut{}, errAt(rels[i].item.Pos, "no join predicate for table %q", rels[i].name)
		}
		ukey := rels[i].ukey
		var bk, pk []string
		var rest []edgeT
		unique := false
		if len(ukey) == 2 && len(es) >= 2 && matchKeySet([]string{es[0].relCol, es[1].relCol}, ukey) {
			bk = []string{es[0].relCol, es[1].relCol}
			pk = []string{es[0].nearCol, es[1].nearCol}
			unique = true
			rest = es[2:]
		} else {
			bk = []string{es[0].relCol}
			pk = []string{es[0].nearCol}
			unique = len(ukey) == 1 && ukey[0] == es[0].relCol
			rest = es[1:]
		}
		sel := 1.0
		if rels[i].table != "" && baseRows[i] > 0 {
			sel = filtRows[i] / baseRows[i]
			if sel > 1 {
				sel = 1
			}
		}
		steps = append(steps, step{
			kind: stepInner, pos: es[0].pos, label: "join " + rels[i].name, rel: i,
			buildNode: relNodes[i], buildKeys: bk, probeKeys: pk, unique: unique,
			needs: pk, provides: visCols[i], buildRows: filtRows[i], buildCols: len(visCols[i]), sel: sel,
		})
		for _, e := range rest {
			p, err := pl.colCmpEq(sc, e.nearCol, e.relCol)
			if err != nil {
				return nil, blockOut{}, err
			}
			steps = append(steps, step{kind: stepResidual, pos: e.pos, label: "filter " + p.String(),
				pred: p, needs: []string{e.nearCol, e.relCol}, sel: 0.5})
		}
	}

	sort.SliceStable(steps, func(a, b int) bool { return steps[a].pos < steps[b].pos })

	ordered, rowsEst := pl.orderSteps(rels[0].name, steps, visCols[0], filtRows[0])

	node := relNodes[0]
	curCols := append([]string(nil), visCols[0]...)
	for si := range ordered {
		st := &ordered[si]
		switch st.kind {
		case stepInner:
			node = pl.join(&plan.HashJoin{Kind: plan.Inner, Build: st.buildNode, Probe: node,
				BuildKeys: st.buildKeys, ProbeKeys: st.probeKeys})
			curCols = append(curCols, st.provides...)
		case stepSemi, stepAnti:
			kind := plan.Semi
			if st.kind == stepAnti {
				kind = plan.Anti
			}
			node = pl.join(&plan.HashJoin{Kind: kind, Build: st.buildNode, Probe: node,
				BuildKeys: st.buildKeys, ProbeKeys: st.probeKeys})
		case stepResidual:
			node = &plan.Filter{Input: node, Pred: st.pred}
		case stepProjCmp:
			ln := fmt.Sprintf("__cmp%dl", si)
			rn := fmt.Sprintf("__cmp%dr", si)
			cols := make([]plan.NamedExpr, 0, len(curCols)+2)
			for _, c := range curCols {
				cols = append(cols, plan.NamedExpr{Name: c, Expr: exec.Col{Name: c}})
			}
			cols = append(cols,
				plan.NamedExpr{Name: ln, Expr: st.lExpr},
				plan.NamedExpr{Name: rn, Expr: st.rExpr})
			node = &plan.Filter{
				Input: &plan.Project{Input: node, Cols: cols},
				Pred:  exec.ColCmpF{A: ln, B: rn, Op: st.cmpOp},
			}
			curCols = append(curCols, ln, rn)
		}
	}

	node, err = pl.lowerOutput(b, node, sc, outCols, resolved)
	if err != nil {
		return nil, blockOut{}, err
	}
	if len(b.GroupBy) > 0 {
		rowsEst = rowsEst / 2
	} else if blockHasAgg(b) {
		rowsEst = 1
	}
	if b.Limit >= 0 && float64(b.Limit) < rowsEst {
		rowsEst = float64(b.Limit)
	}
	if rowsEst < 1 {
		rowsEst = 1
	}
	return node, blockOut{cols: outCols, ukey: outUkey, rows: rowsEst}, nil
}

// usedCols collects every column name the block references, for
// base-scan pruning. Subquery bodies resolve in their own scope and are
// excluded by walkCols.
func (pl *planner) usedCols(b *SelectBlock) []string {
	var used []string
	for i := range b.Items {
		for _, n := range walkCols(b.Items[i].Expr, nil) {
			used = dedupAppend(used, n)
		}
	}
	for _, e := range []Expr{b.Where, b.Having} {
		if e == nil {
			continue
		}
		for _, n := range walkCols(e, nil) {
			used = dedupAppend(used, n)
		}
	}
	for i := range b.From {
		if b.From[i].On == nil {
			continue
		}
		for _, n := range walkCols(b.From[i].On, nil) {
			used = dedupAppend(used, n)
		}
	}
	return used
}

// colEquality matches `a = b` between columns of two different relations.
func colEquality(c Expr, sc scope) (*ColRef, *ColRef, bool) {
	cmp, ok := c.(*BinExpr)
	if !ok || cmp.Op != "=" {
		return nil, nil, false
	}
	a, okA := cmp.L.(*ColRef)
	b, okB := cmp.R.(*ColRef)
	if !okA || !okB {
		return nil, nil, false
	}
	ba, inA := sc[a.Name]
	bb, inB := sc[b.Name]
	if !inA || !inB || ba.rel == bb.rel {
		return nil, nil, false
	}
	return a, b, true
}

// colCmpEq builds a row-wise equality predicate between two columns of
// the joined table.
func (pl *planner) colCmpEq(sc scope, a, b string) (exec.Pred, error) {
	ta, tb := sc[a].typ, sc[b].typ
	if ta != tb {
		return nil, internalf("join residual %s = %s compares %s and %s", a, b, ta, tb)
	}
	switch ta {
	case colstore.Int64:
		return exec.ColCmpI{A: a, B: b, Op: exec.Eq}, nil
	case colstore.Float64:
		return exec.ColCmpF{A: a, B: b, Op: exec.Eq}, nil
	case colstore.Date:
		return exec.ColCmpD{A: a, B: b, Op: exec.Eq}, nil
	}
	return nil, internalf("join residual %s = %s: unsupported type %s", a, b, ta)
}

// matchKeySet reports whether the two name lists contain the same names.
func matchKeySet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// blockHasAgg reports whether any select item aggregates.
func blockHasAgg(b *SelectBlock) bool {
	for i := range b.Items {
		if containsAgg(b.Items[i].Expr) {
			return true
		}
	}
	return false
}
