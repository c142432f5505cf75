package plan

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// AggFunc is an aggregate function.
type AggFunc uint8

// The aggregate functions.
const (
	// Sum adds the argument (float64 result).
	Sum AggFunc = iota
	// Count counts rows; a nil argument means COUNT(*).
	Count
	// Avg averages the argument (float64 result).
	Avg
	// Min takes the minimum of the argument (float64 result).
	Min
	// Max takes the maximum of the argument (float64 result).
	Max
	// SumI adds an int64 argument with an int64 result. It exists for
	// merging distributed partial counts without losing integer typing.
	SumI
)

// String returns the SQL name of the function.
func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "sumi"
	}
}

// AggSpec describes one aggregate output column.
type AggSpec struct {
	// Name is the output column name.
	Name string
	// Func is the aggregate function.
	Func AggFunc
	// Arg is the aggregated expression; it must be nil only for Count.
	Arg exec.Expr
}

// GroupBy groups its input by the key columns and computes aggregates.
// With no keys it computes scalar aggregates over the whole input,
// producing exactly one row (even for empty input, matching SQL
// aggregation semantics).
//
// Output rows appear in order of first key occurrence; key columns retain
// their input types.
type GroupBy struct {
	// Input is the child operator.
	Input Node
	// Keys name the grouping columns (may be empty).
	Keys []string
	// Aggs are the aggregate outputs.
	Aggs []AggSpec
}

// Execute implements Node.
func (g *GroupBy) Execute(ctx *Context) (*colstore.Table, error) {
	in, err := g.Input.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return g.aggregate(ctx, in)
}

// aggregate groups and aggregates an already-materialized input. It is
// the whole of Execute after the input executes, split out so the fused
// engine can feed the survivors of a compiled pipeline through the exact
// same code: identical rows in identical order take identical morsel
// boundaries and merge order, making the output bit-identical between
// engines.
func (g *GroupBy) aggregate(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
	if len(g.Keys) == 0 {
		return g.scalar(ctx, in)
	}
	// The morsel path is taken whenever the input is large enough —
	// regardless of worker count. Morsel boundaries depend only on input
	// size, and partial aggregates merge in morsel order, so the result
	// (floating-point sums included) is bit-identical at every degree of
	// parallelism. An input arriving clustered on a key aggregates in
	// cache-sized chunks instead (byte-identical by construction).
	if in.NumRows() >= ctx.parallelMinRows() {
		if key, cuts := g.clusteredCuts(ctx, in); cuts != nil {
			return g.groupedClustered(ctx, in, key, cuts)
		}
		packed, err := packKeysParallel(ctx, in, g.Keys)
		if err != nil {
			return nil, err
		}
		return g.groupedMorsel(ctx, in, packed)
	}
	packed, err := packKeys(in, g.Keys, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	grouper := exec.NewGrouper(1024)
	gids := grouper.GroupIDs(packed, ctx.Ctr)
	ngroups := grouper.NumGroups()

	firstRow := make([]int32, ngroups)
	for i := range firstRow {
		firstRow[i] = -1
	}
	for i, gid := range gids {
		if firstRow[gid] < 0 {
			firstRow[gid] = int32(i)
		}
	}

	schema := make(colstore.Schema, 0, len(g.Keys)+len(g.Aggs))
	cols := make([]colstore.Column, 0, len(g.Keys)+len(g.Aggs))
	for _, k := range g.Keys {
		c, err := in.ColByName(k)
		if err != nil {
			return nil, err
		}
		schema = append(schema, colstore.Field{Name: k, Type: c.Type()})
		cols = append(cols, c.Gather(firstRow))
	}
	ctx.Ctr.RandomAccesses += int64(ngroups) * int64(len(g.Keys))

	for _, spec := range g.Aggs {
		col, err := evalAgg(ctx, in, spec, gids, ngroups)
		if err != nil {
			return nil, err
		}
		schema = append(schema, colstore.Field{Name: spec.Name, Type: col.Type()})
		cols = append(cols, col)
	}
	out, err := colstore.NewTable("", schema, cols)
	if err != nil {
		return nil, err
	}
	ctx.Ctr.TuplesMaterialized += int64(ngroups)
	ctx.Ctr.BytesMaterialized += out.SizeBytes()
	observe(ctx, in, out)
	return out, nil
}

func (g *GroupBy) scalar(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
	schema := make(colstore.Schema, 0, len(g.Aggs))
	cols := make([]colstore.Column, 0, len(g.Aggs))
	for _, spec := range g.Aggs {
		switch spec.Func {
		case Count:
			schema = append(schema, colstore.Field{Name: spec.Name, Type: colstore.Int64})
			cols = append(cols, &colstore.Int64s{V: []int64{int64(in.NumRows())}})
		case SumI:
			iv, err := aggArgI(ctx, in, spec)
			if err != nil {
				return nil, err
			}
			schema = append(schema, colstore.Field{Name: spec.Name, Type: colstore.Int64})
			cols = append(cols, &colstore.Int64s{V: []int64{exec.SumI64(iv, ctx.Ctr)}})
		default:
			vals, err := aggArg(ctx, in, spec)
			if err != nil {
				return nil, err
			}
			var v float64
			switch spec.Func {
			case Sum:
				v = exec.SumF64(vals, ctx.Ctr)
			case Avg:
				if len(vals) > 0 {
					v = exec.SumF64(vals, ctx.Ctr) / float64(len(vals))
				}
			case Min:
				v = math.Inf(1)
				for _, x := range vals {
					if x < v {
						v = x
					}
				}
				if len(vals) == 0 {
					v = 0
				}
				ctx.Ctr.FloatOps += int64(len(vals))
			case Max:
				v = math.Inf(-1)
				for _, x := range vals {
					if x > v {
						v = x
					}
				}
				if len(vals) == 0 {
					v = 0
				}
				ctx.Ctr.FloatOps += int64(len(vals))
			}
			schema = append(schema, colstore.Field{Name: spec.Name, Type: colstore.Float64})
			cols = append(cols, &colstore.Float64s{V: []float64{v}})
		}
	}
	return colstore.NewTable("", schema, cols)
}

func aggArgI(ctx *Context, in *colstore.Table, spec AggSpec) ([]int64, error) {
	if spec.Arg == nil {
		return nil, fmt.Errorf("plan: %s(%s) needs an argument", spec.Func, spec.Name)
	}
	c, err := evalExprParallel(ctx, in, spec.Arg)
	if err != nil {
		return nil, fmt.Errorf("plan: agg %s: %w", spec.Name, err)
	}
	iv, err := exec.AsInt64(c, ctx.Ctr)
	if err != nil {
		return nil, fmt.Errorf("plan: agg %s: sumi needs an int64 argument: %w", spec.Name, err)
	}
	return iv, nil
}

func aggArg(ctx *Context, in *colstore.Table, spec AggSpec) ([]float64, error) {
	if spec.Arg == nil {
		return nil, fmt.Errorf("plan: %s(%s) needs an argument", spec.Func, spec.Name)
	}
	c, err := evalExprParallel(ctx, in, spec.Arg)
	if err != nil {
		return nil, fmt.Errorf("plan: agg %s: %w", spec.Name, err)
	}
	return exec.AsFloat64(c, ctx.Ctr)
}

// evalAggArg evaluates spec's argument over in (typically a morsel
// slice) as float64 values, charging ctr.
func evalAggArg(in *colstore.Table, spec AggSpec, ctr *exec.Counters) ([]float64, error) {
	if spec.Arg == nil {
		return nil, fmt.Errorf("plan: %s(%s) needs an argument", spec.Func, spec.Name)
	}
	c, err := spec.Arg.Eval(in, ctr)
	if err != nil {
		return nil, fmt.Errorf("plan: agg %s: %w", spec.Name, err)
	}
	return exec.AsFloat64(c, ctr)
}

// evalAggArgI is evalAggArg for int64 arguments (SumI).
func evalAggArgI(in *colstore.Table, spec AggSpec, ctr *exec.Counters) ([]int64, error) {
	if spec.Arg == nil {
		return nil, fmt.Errorf("plan: %s(%s) needs an argument", spec.Func, spec.Name)
	}
	c, err := spec.Arg.Eval(in, ctr)
	if err != nil {
		return nil, fmt.Errorf("plan: agg %s: %w", spec.Name, err)
	}
	iv, err := exec.AsInt64(c, ctr)
	if err != nil {
		return nil, fmt.Errorf("plan: agg %s: sumi needs an int64 argument: %w", spec.Name, err)
	}
	return iv, nil
}

func evalAgg(ctx *Context, in *colstore.Table, spec AggSpec, gids []int32, ngroups int) (colstore.Column, error) {
	if spec.Func == Count && spec.Arg == nil {
		var counts []int64
		exec.ScatterCount(gids, &counts, ngroups, ctx.Ctr)
		return &colstore.Int64s{V: counts}, nil
	}
	if spec.Func == SumI {
		iv, err := aggArgI(ctx, in, spec)
		if err != nil {
			return nil, err
		}
		var sums []int64
		exec.ScatterSumI64(gids, iv, &sums, ngroups, ctx.Ctr)
		return &colstore.Int64s{V: sums}, nil
	}
	vals, err := aggArg(ctx, in, spec)
	if err != nil {
		return nil, err
	}
	switch spec.Func {
	case Sum:
		var sums []float64
		exec.ScatterSumF64(gids, vals, &sums, ngroups, ctx.Ctr)
		return &colstore.Float64s{V: sums}, nil
	case Count:
		var counts []int64
		exec.ScatterCount(gids, &counts, ngroups, ctx.Ctr)
		return &colstore.Int64s{V: counts}, nil
	case Avg:
		var sums []float64
		var counts []int64
		exec.ScatterSumF64(gids, vals, &sums, ngroups, ctx.Ctr)
		exec.ScatterCount(gids, &counts, ngroups, ctx.Ctr)
		out := make([]float64, ngroups)
		for i := range out {
			if counts[i] > 0 {
				out[i] = sums[i] / float64(counts[i])
			}
		}
		ctx.Ctr.FloatOps += int64(ngroups)
		return &colstore.Float64s{V: out}, nil
	case Min:
		var mins []float64
		exec.ScatterMinF64(gids, vals, &mins, ngroups, math.Inf(1), ctx.Ctr)
		return &colstore.Float64s{V: mins}, nil
	case Max:
		var maxs []float64
		exec.ScatterMaxF64(gids, vals, &maxs, ngroups, math.Inf(-1), ctx.Ctr)
		return &colstore.Float64s{V: maxs}, nil
	default:
		return nil, fmt.Errorf("plan: unknown aggregate %d", spec.Func)
	}
}

// Explain implements Node.
func (g *GroupBy) Explain(depth int) string {
	aggs := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		arg := "*"
		if a.Arg != nil {
			arg = a.Arg.String()
		}
		aggs[i] = fmt.Sprintf("%s=%s(%s)", a.Name, a.Func, arg)
	}
	return fmt.Sprintf("%sgroup by [%s] %s\n%s",
		pad(depth), strings.Join(g.Keys, ", "), strings.Join(aggs, ", "),
		g.Input.Explain(depth+1))
}

// packKeys encodes one or more grouping columns into single 64-bit keys,
// sizing each component's bit width from its maximum value. Negative key
// values are rejected. A dense single key is the column's own (ownKeys).
func packKeys(t *colstore.Table, names []string, ctr *exec.Counters) ([]int64, error) {
	if k, ok := ownKeys(t, names, nil, ctr); ok {
		return k, nil
	}
	vecs := make([][]int64, len(names))
	for i, name := range names {
		c, err := t.ColByName(name)
		if err != nil {
			return nil, err
		}
		v, err := exec.KeysFromColumn(c, nil, ctr)
		if err != nil {
			return nil, fmt.Errorf("plan: group key %s: %w", name, err)
		}
		vecs[i] = v
	}
	if len(vecs) == 1 {
		return vecs[0], nil
	}
	widths, err := keyWidths(vecs, names)
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	out := make([]int64, n)
	copy(out, vecs[0])
	for i := 1; i < len(vecs); i++ {
		b := widths[i]
		v := vecs[i]
		for r := 0; r < n; r++ {
			out[r] = out[r]<<b | v[r]
		}
	}
	ctr.IntOps += int64(n) * int64(len(vecs))
	return out, nil
}

// keyWidths sizes each key column's bit width from its maximum value,
// rejecting negative keys and key sets wider than 63 bits.
func keyWidths(vecs [][]int64, names []string) ([]uint, error) {
	widths := make([]uint, len(vecs))
	var total uint
	for i, v := range vecs {
		var max int64
		for _, x := range v {
			if x < 0 {
				return nil, fmt.Errorf("plan: group key %s has negative value %d", names[i], x)
			}
			if x > max {
				max = x
			}
		}
		widths[i] = uint(bits.Len64(uint64(max | 1)))
		total += widths[i]
	}
	if total > 63 {
		return nil, fmt.Errorf("plan: group keys %v need %d bits, max 63", names, total)
	}
	return widths, nil
}

// aggState holds the accumulators for one aggregate spec — for a single
// morsel, or for the merged global result. Which slices are live depends
// on the function: Sum/Min/Max use f, Count/SumI use i, Avg uses both.
type aggState struct {
	f []float64
	i []int64
}

// groupPart is one morsel's thread-local aggregation state.
type groupPart struct {
	grouper  *exec.Grouper
	firstRow []int32 // local gid -> global row of first occurrence
	aggs     []aggState
}

// groupedMorsel is the morsel-parallel grouped aggregation over
// already-packed keys: each morsel aggregates into a thread-local hash
// table, and the locals are folded into the global table in a final
// single pass, in morsel order. Because global group IDs are assigned in
// order of first key occurrence across morsels processed in order, group
// order matches the sequential Grouper exactly.
func (g *GroupBy) groupedMorsel(ctx *Context, in *colstore.Table, packed []int64) (*colstore.Table, error) {
	n := in.NumRows()
	var err error
	nm := exec.NumMorsels(n, ctx.morselRows())
	parts := make([]*groupPart, nm)
	err = exec.RunMorsels(ctx.workers(), n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
		p, err := g.aggMorsel(in, packed, lo, hi, ctr)
		if err != nil {
			return err
		}
		parts[m] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Single-threaded merge, in morsel order.
	merged := exec.NewGrouper(1024)
	var firstRow []int32
	aggs := make([]aggState, len(g.Aggs))
	for _, p := range parts {
		lkeys := p.grouper.GroupKeys()
		g2l := merged.GroupIDs(lkeys, ctx.Ctr)
		ng := merged.NumGroups()
		for len(firstRow) < ng {
			firstRow = append(firstRow, -1)
		}
		for lg, gg := range g2l {
			if firstRow[gg] < 0 {
				firstRow[gg] = p.firstRow[lg]
			}
		}
		for si := range g.Aggs {
			mergeAggState(&aggs[si], &p.aggs[si], g2l, ng, g.Aggs[si].Func)
		}
		ctx.Ctr.AggUpdates += int64(len(lkeys)) * int64(len(g.Aggs))
		ctx.Ctr.MergeBytes += int64(len(lkeys)) * int64(12+16*len(g.Aggs))
	}
	ngroups := merged.NumGroups()

	schema := make(colstore.Schema, 0, len(g.Keys)+len(g.Aggs))
	cols := make([]colstore.Column, 0, len(g.Keys)+len(g.Aggs))
	for _, k := range g.Keys {
		c, err := in.ColByName(k)
		if err != nil {
			return nil, err
		}
		schema = append(schema, colstore.Field{Name: k, Type: c.Type()})
		cols = append(cols, c.Gather(firstRow))
	}
	ctx.Ctr.RandomAccesses += int64(ngroups) * int64(len(g.Keys))

	for si, spec := range g.Aggs {
		st := &aggs[si]
		var col colstore.Column
		switch spec.Func {
		case Count, SumI:
			growI(&st.i, ngroups, 0)
			col = &colstore.Int64s{V: st.i}
		case Sum:
			growF(&st.f, ngroups, 0)
			col = &colstore.Float64s{V: st.f}
		case Avg:
			growF(&st.f, ngroups, 0)
			growI(&st.i, ngroups, 0)
			out := make([]float64, ngroups)
			for i := range out {
				if st.i[i] > 0 {
					out[i] = st.f[i] / float64(st.i[i])
				}
			}
			ctx.Ctr.FloatOps += int64(ngroups)
			col = &colstore.Float64s{V: out}
		case Min:
			growF(&st.f, ngroups, math.Inf(1))
			col = &colstore.Float64s{V: st.f}
		case Max:
			growF(&st.f, ngroups, math.Inf(-1))
			col = &colstore.Float64s{V: st.f}
		default:
			return nil, fmt.Errorf("plan: unknown aggregate %d", spec.Func)
		}
		schema = append(schema, colstore.Field{Name: spec.Name, Type: col.Type()})
		cols = append(cols, col)
	}
	out, err := colstore.NewTable("", schema, cols)
	if err != nil {
		return nil, err
	}
	ctx.Ctr.TuplesMaterialized += int64(ngroups)
	ctx.Ctr.BytesMaterialized += out.SizeBytes()
	observe(ctx, in, out)
	return out, nil
}

// aggMorsel aggregates rows [lo, hi) into a fresh thread-local state.
func (g *GroupBy) aggMorsel(in *colstore.Table, packed []int64, lo, hi int, ctr *exec.Counters) (*groupPart, error) {
	sub := in.Slice(lo, hi)
	p := &groupPart{grouper: exec.NewGrouper(256), aggs: make([]aggState, len(g.Aggs))}
	gids := p.grouper.GroupIDs(packed[lo:hi], ctr)
	ng := p.grouper.NumGroups()
	p.firstRow = make([]int32, ng)
	for i := range p.firstRow {
		p.firstRow[i] = -1
	}
	for i, gid := range gids {
		if p.firstRow[gid] < 0 {
			p.firstRow[gid] = int32(lo + i)
		}
	}
	for si, spec := range g.Aggs {
		st := &p.aggs[si]
		switch spec.Func {
		case Count:
			exec.ScatterCount(gids, &st.i, ng, ctr)
		case SumI:
			iv, err := evalAggArgI(sub, spec, ctr)
			if err != nil {
				return nil, err
			}
			exec.ScatterSumI64(gids, iv, &st.i, ng, ctr)
		case Sum:
			vals, err := evalAggArg(sub, spec, ctr)
			if err != nil {
				return nil, err
			}
			exec.ScatterSumF64(gids, vals, &st.f, ng, ctr)
		case Avg:
			vals, err := evalAggArg(sub, spec, ctr)
			if err != nil {
				return nil, err
			}
			exec.ScatterSumF64(gids, vals, &st.f, ng, ctr)
			exec.ScatterCount(gids, &st.i, ng, ctr)
		case Min:
			vals, err := evalAggArg(sub, spec, ctr)
			if err != nil {
				return nil, err
			}
			exec.ScatterMinF64(gids, vals, &st.f, ng, math.Inf(1), ctr)
		case Max:
			vals, err := evalAggArg(sub, spec, ctr)
			if err != nil {
				return nil, err
			}
			exec.ScatterMaxF64(gids, vals, &st.f, ng, math.Inf(-1), ctr)
		default:
			return nil, fmt.Errorf("plan: unknown aggregate %d", spec.Func)
		}
	}
	return p, nil
}

// mergeAggState folds a morsel's local accumulators into the global
// state through the local-to-global group ID mapping.
func mergeAggState(dst, src *aggState, g2l []int32, ng int, fn AggFunc) {
	switch fn {
	case Sum:
		growF(&dst.f, ng, 0)
		for lg, v := range src.f {
			dst.f[g2l[lg]] += v
		}
	case Count, SumI:
		growI(&dst.i, ng, 0)
		for lg, v := range src.i {
			dst.i[g2l[lg]] += v
		}
	case Avg:
		growF(&dst.f, ng, 0)
		growI(&dst.i, ng, 0)
		for lg, v := range src.f {
			dst.f[g2l[lg]] += v
		}
		for lg, v := range src.i {
			dst.i[g2l[lg]] += v
		}
	case Min:
		growF(&dst.f, ng, math.Inf(1))
		for lg, v := range src.f {
			if v < dst.f[g2l[lg]] {
				dst.f[g2l[lg]] = v
			}
		}
	case Max:
		growF(&dst.f, ng, math.Inf(-1))
		for lg, v := range src.f {
			if v > dst.f[g2l[lg]] {
				dst.f[g2l[lg]] = v
			}
		}
	}
}

func growF(s *[]float64, n int, fill float64) {
	for len(*s) < n {
		*s = append(*s, fill)
	}
}

func growI(s *[]int64, n int, fill int64) {
	for len(*s) < n {
		*s = append(*s, fill)
	}
}

// packKeysParallel is packKeys with the per-row work — key extraction
// and bit packing — split into morsels. Bit widths come from exact
// global maxima, so the encoding is identical to the sequential pack.
func packKeysParallel(ctx *Context, t *colstore.Table, names []string) ([]int64, error) {
	if k, ok := ownKeys(t, names, nil, ctx.Ctr); ok {
		return k, nil
	}
	w := ctx.workers()
	n := t.NumRows()
	mr := ctx.morselRows()
	vecs := make([][]int64, len(names))
	for i, name := range names {
		c, err := t.ColByName(name)
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		err = exec.RunMorsels(w, n, mr, ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
			if err := exec.KeysInto(out[lo:hi], c.Slice(lo, hi), nil, ctr); err != nil {
				return fmt.Errorf("plan: group key %s: %w", name, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		vecs[i] = out
	}
	if len(vecs) == 1 {
		return vecs[0], nil
	}
	widths, err := keyWidths(vecs, names)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	err = exec.RunMorsels(w, n, mr, ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
		for r := lo; r < hi; r++ {
			k := vecs[0][r]
			for i := 1; i < len(vecs); i++ {
				k = k<<widths[i] | vecs[i][r]
			}
			out[r] = k
		}
		ctr.IntOps += int64(hi-lo) * int64(len(vecs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
