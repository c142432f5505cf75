package plan

import (
	"fmt"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// parallelSel evaluates pred over t through the shared morsel scheduler
// (exec.RunMorsels). The predicate is bound to t first, so its per-table
// work (a string mask) is done once; then each morsel selects from a
// zero-copy slice with private counters, match indexes are offset back
// to table-global row numbers and concatenated in morsel order, so the
// output is identical to a sequential evaluation at any worker count.
func parallelSel(ctx *Context, t *colstore.Table, pred exec.Pred) ([]int32, error) {
	n := t.NumRows()
	if exec.Serial(ctx.Workers, n, ctx.MorselRows) {
		return pred.Sel(t, nil, ctx.Ctr)
	}
	bound, err := exec.Bind(pred, t, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	nm := exec.NumMorsels(n, ctx.morselRows())
	sels := make([][]int32, nm)
	err = exec.RunMorsels(ctx.workers(), n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
		sub := t.Slice(lo, hi)
		sel, err := bound(sub, nil, ctr)
		if err != nil {
			return err
		}
		for j := range sel {
			sel[j] += int32(lo)
		}
		sels[m] = sel
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, _ := exec.ConcatMatches(sels) // at most one id per row of t
	ctx.Ctr.MergeBytes += int64(len(out)) * 4
	return out, nil
}

// evalExprParallel evaluates e over in, splitting computed expressions
// into morsels; a CASE predicate is bound to in first (exec.BindExpr), so
// its per-table work is done once. Expression kernels are elementwise, so evaluating on
// zero-copy slices and concatenating the chunks in morsel order is
// bit-identical to a whole-table evaluation. Plain column references
// stay zero-copy, and a string-producing expression (exec.PrefixExpr, the
// only one) evaluates whole: its chunks would each hold a dictionary of
// their own, which concatChunks cannot stitch.
func evalExprParallel(ctx *Context, in *colstore.Table, e exec.Expr) (colstore.Column, error) {
	n := in.NumRows()
	if exec.Serial(ctx.Workers, n, ctx.MorselRows) {
		return e.Eval(in, ctx.Ctr)
	}
	switch e.(type) {
	case exec.Col, exec.PrefixExpr:
		return e.Eval(in, ctx.Ctr)
	case exec.Arith, exec.CaseWhenF, exec.ConstF, exec.YearExpr:
		// Fixed-width results: evaluated in morsels and stitched.
	}
	bound, err := exec.BindExpr(e, in, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	nm := exec.NumMorsels(n, ctx.morselRows())
	chunks := make([]colstore.Column, nm)
	err = exec.RunMorsels(ctx.workers(), n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
		c, err := bound.Eval(in.Slice(lo, hi), ctr)
		if err != nil {
			return err
		}
		chunks[m] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, err := concatChunks(chunks, n)
	if err != nil {
		return nil, fmt.Errorf("plan: %s: %w", e, err)
	}
	ctx.Ctr.MergeBytes += out.SizeBytes()
	return out, nil
}

// concatChunks stitches per-morsel expression results into one column.
// It handles the fixed-width types expressions produce; anything else is
// an error.
func concatChunks(chunks []colstore.Column, n int) (colstore.Column, error) {
	switch chunks[0].(type) {
	case *colstore.Float64s:
		v, err := concatOf(chunks, n, func(c *colstore.Float64s) []float64 { return c.V })
		return &colstore.Float64s{V: v}, err
	case *colstore.Int64s:
		v, err := concatOf(chunks, n, func(c *colstore.Int64s) []int64 { return c.V })
		return &colstore.Int64s{V: v}, err
	case *colstore.Dates:
		v, err := concatOf(chunks, n, func(c *colstore.Dates) []int32 { return c.V })
		return &colstore.Dates{V: v}, err
	case *colstore.Bools:
		v, err := concatOf(chunks, n, func(c *colstore.Bools) []bool { return c.V })
		return &colstore.Bools{V: v}, err
	default:
		return nil, fmt.Errorf("cannot stitch %T morsel results", chunks[0])
	}
}

// concatOf appends the values of chunks, all of type C, in order.
func concatOf[C colstore.Column, T any](chunks []colstore.Column, n int, values func(C) []T) ([]T, error) {
	out := make([]T, 0, n)
	for _, c := range chunks {
		cc, ok := c.(C)
		if !ok {
			return nil, fmt.Errorf("cannot stitch %T and %T morsel results", chunks[0], c)
		}
		out = append(out, values(cc)...)
	}
	return out, nil
}
