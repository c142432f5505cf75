package plan

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// Execute implements Node. Only the key columns are materialized: the
// aggregates read the others through views (argInput).
func (g *GroupBy) Execute(ctx *Context) (*colstore.Table, error) {
	in, err := ctx.runReading(g.Input, g.Keys, false)
	if err != nil {
		return nil, err
	}
	return g.aggregate(ctx, in)
}

// aggregate groups and aggregates an input whose key columns are
// materialized. It is the whole of Execute after the input executes,
// split out so the fused engine can feed the survivors of a compiled
// pipeline through the exact same code: identical rows in identical
// order take identical morsel boundaries and merge order, making the
// output bit-identical between engines.
func (g *GroupBy) aggregate(ctx *Context, in *colstore.Table) (*colstore.Table, error) {
	args := in
	if slices.ContainsFunc(in.Cols, func(c colstore.Column) bool { _, ok := c.(*colstore.View); return ok }) {
		var err error
		if in, args, err = g.argInput(ctx, in); err != nil {
			return nil, err
		}
	}
	if len(g.Keys) == 0 {
		return g.scalar(ctx, in)
	}
	keys, err := g.groupKeys(in)
	if err != nil {
		return nil, err
	}
	// The morsel path is taken whenever the input is large enough —
	// regardless of worker count. Morsel boundaries depend only on input
	// size, and partial aggregates merge in morsel order, so the result
	// (floating-point sums included) is bit-identical at every degree of
	// parallelism. An input arriving clustered on a key aggregates in
	// cache-sized chunks instead (byte-identical by construction).
	if in.NumRows() >= ctx.morselRows() {
		if key, cuts := g.clusteredCuts(ctx, in); cuts != nil {
			return g.groupedClustered(ctx, in, args, keys, key, cuts)
		}
		return g.groupedMorsel(ctx, in, args, keys)
	}
	return g.groupedSequential(ctx, in, args, keys)
}

// argInput prepares an input that holds views for the aggregates: it
// materializes the columns a kernel must read whole — every column an
// aggregate reads on the scalar path, a CASE predicate's (bound once,
// boundAggs) on the grouped ones — and returns that input with args, the
// columns the aggregates read, which the grouped paths decode a morsel
// at a time (groupScratch.argRows). No path copies a column no aggregate
// reads. An argument exprCols cannot analyze materializes every column.
func (g *GroupBy) argInput(ctx *Context, in *colstore.Table) (_, args *colstore.Table, err error) {
	var reads, preds []string
	ok := true
	for _, spec := range g.Aggs {
		if spec.Func != Count && spec.Arg != nil {
			cols, analyzed := exprCols(spec.Arg)
			reads, preds, ok = append(reads, cols...), append(preds, casePredCols(spec.Arg)...), ok && analyzed
		}
	}
	if reads = dedupNames(reads); len(g.Keys) == 0 {
		preds = reads
	}
	if in, err = ctx.materialize(in, preds, !ok); err != nil || !ok {
		return in, in, err
	}
	args, err = in.Project(reads...)
	return in, args, err
}

// groupedSequential aggregates an input too small for morsels: one
// Grouper over all of its keys, and one fold per aggregate kind. args
// holds the columns the aggregates read.
func (g *GroupBy) groupedSequential(ctx *Context, in, args *colstore.Table, keys *groupKeys) (*colstore.Table, error) {
	n := in.NumRows()
	if err := keys.sizeRows(0, n); err != nil {
		return nil, err
	}
	s := scratchOf(ctx.Ctr)
	packed, err := keys.pack(s, 0, n, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	grouper := exec.NewGrouper(1024)
	gids := resized(&s.gids, n)
	grouper.GroupIDsInto(packed, gids, ctx.Ctr)
	ngroups := grouper.NumGroups()
	aggs, err := foldAggs(g.Aggs, s.argRows(args, 0, n), gids, ngroups, &s.fl, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	return g.groupsTable(ctx, in, firstRows(gids, 0, ngroups), aggs)
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
			iv, err := aggValues(spec, func(e exec.Expr) ([]int64, error) { return ints(evalExprParallel(ctx, in, e)) })
			if err != nil {
				return nil, err
			}
			schema = append(schema, colstore.Field{Name: spec.Name, Type: colstore.Int64})
			cols = append(cols, &colstore.Int64s{V: []int64{exec.SumI64(iv, ctx.Ctr)}})
		default:
			vals, err := aggValues(spec, func(e exec.Expr) ([]float64, error) {
				c, err := evalExprParallel(ctx, in, e)
				if err != nil {
					return nil, err
				}
				return exec.AsFloat64(c, ctx.Ctr)
			})
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

// aggValues evaluates spec's argument with eval, naming the aggregate in
// an error.
func aggValues[T any](spec AggSpec, eval func(exec.Expr) (T, error)) (v T, err error) {
	if spec.Arg == nil {
		return v, fmt.Errorf("plan: %s(%s) needs an argument", spec.Func, spec.Name)
	}
	if v, err = eval(spec.Arg); err != nil {
		return v, fmt.Errorf("plan: agg %s: %w", spec.Name, err)
	}
	return v, nil
}

// ints returns the int64 values of a SumI argument evaluated to c.
func ints(c colstore.Column, err error) ([]int64, error) {
	if err != nil {
		return nil, err
	}
	iv, err := exec.AsInt64(c)
	if err != nil {
		return nil, fmt.Errorf("sumi needs an int64 argument: %w", err)
	}
	return iv, nil
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

// directMaxSpan bounds the packed key space whose group IDs come from a
// table indexed by the key itself: 4 096 int32 slots, 16 KiB, far inside
// the Pi's 512 KiB L2. A morsel clears only the slots its groups took —
// at most one per row, and never more than an eighth of a default
// morsel's rows.
const directMaxSpan = 1 << 12

// groupKeys turns a group-by's key columns into one int64 per row: a
// single key as it is, several packed side by side, each in the bit width
// its maximum needs.
type groupKeys struct {
	names  []string
	cols   []colstore.Column
	widths []uint // per column, set by size for two or more keys
	// span > 0 says every packed key lies in [0, span), small enough
	// (directMaxSpan) for group IDs by direct index.
	span int
}

// groupKeys looks up g's key columns in in.
func (g *GroupBy) groupKeys(in *colstore.Table) (*groupKeys, error) {
	k := &groupKeys{names: g.Keys, cols: make([]colstore.Column, len(g.Keys))}
	for i, name := range g.Keys {
		c, err := in.ColByName(name)
		if err != nil {
			return nil, err
		}
		k.cols[i] = c
	}
	return k, nil
}

// ranges returns bounds on each key column's keys over rows [lo, hi)
// (keyRange). It writes nothing and charges nothing: the widths it sizes
// are bookkeeping, not per-row work.
func (k *groupKeys) ranges(lo, hi int) (mins, maxs []int64, err error) {
	mins, maxs = make([]int64, len(k.cols)), make([]int64, len(k.cols))
	for i, c := range k.cols {
		if mins[i], maxs[i], err = keyRange(sliceRows(c, lo, hi)); err != nil {
			return nil, nil, fmt.Errorf("plan: group key %s: %w", k.names[i], err)
		}
	}
	return mins, maxs, nil
}

// sizeRows sizes the packing of several keys from the keys of rows
// [lo, hi), for the paths that never index by the key (sequential and
// clustered): a single key needs no sizing there, so it is not scanned.
func (k *groupKeys) sizeRows(lo, hi int) error {
	if len(k.cols) == 1 {
		return nil
	}
	mins, maxs, err := k.ranges(lo, hi)
	if err != nil {
		return err
	}
	return k.size(mins, maxs)
}

// sizeParallel is sizeRows over all n rows, with the ranges taken in
// morsels.
func (k *groupKeys) sizeParallel(ctx *Context, n int) error {
	nm := exec.NumMorsels(n, ctx.morselRows())
	partMins, partMaxs := make([][]int64, nm), make([][]int64, nm)
	err := exec.RunMorsels(ctx.workers(), n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, _ *exec.Counters) error {
		var err error
		partMins[m], partMaxs[m], err = k.ranges(lo, hi)
		return err
	})
	if err != nil {
		return err
	}
	mins, maxs := partMins[0], partMaxs[0]
	for m := 1; m < nm; m++ {
		for i := range mins {
			mins[i] = min(mins[i], partMins[m][i])
			maxs[i] = max(maxs[i], partMaxs[m][i])
		}
	}
	return k.size(mins, maxs)
}

// size lays out the packed key from each column's key range. A single key
// is used as it is — negative values included — and indexes the direct
// table when it lies in [0, directMaxSpan). Several keys must be
// non-negative and fit 63 bits together; they index the direct table
// when the largest packed key does.
func (k *groupKeys) size(mins, maxs []int64) error {
	k.span = 0
	if len(k.cols) == 1 {
		if mins[0] >= 0 && maxs[0] < directMaxSpan {
			k.span = int(maxs[0]) + 1
		}
		return nil
	}
	k.widths = make([]uint, len(k.cols))
	var total uint
	for i := range k.cols {
		if mins[i] < 0 {
			return fmt.Errorf("plan: group key %s has negative value %d", k.names[i], mins[i])
		}
		k.widths[i] = uint(bits.Len64(uint64(maxs[i] | 1)))
		total += k.widths[i]
	}
	if total > 63 {
		return fmt.Errorf("plan: group keys %v need %d bits, max 63", k.names, total)
	}
	top := maxs[0]
	for i := 1; i < len(k.cols); i++ {
		top = top<<k.widths[i] | maxs[i]
	}
	if top < directMaxSpan {
		k.span = int(top) + 1
	}
	return nil
}

// pack returns the packed keys of rows [lo, hi). A dense single key is
// read in place, charged as the copy it replaces; anything else decodes
// into s, charged what extracting (and packing) it costs. Keys are read
// only — nothing writes into a key vector.
func (k *groupKeys) pack(s *groupScratch, lo, hi int, ctr *exec.Counters) ([]int64, error) {
	if v, ok := k.cols[0].(*colstore.Int64s); ok && len(k.cols) == 1 {
		ctr.SeqBytes += int64(hi-lo) * 8
		return v.V[lo:hi], nil
	}
	n := hi - lo
	keys := resized(&s.keys, n)
	for i, c := range k.cols {
		dst := keys
		if i > 0 {
			dst = resized(&s.vec, n)
		}
		if err := exec.KeysInto(dst, sliceRows(c, lo, hi), nil, ctr); err != nil {
			return nil, fmt.Errorf("plan: group key %s: %w", k.names[i], err)
		}
		if i > 0 {
			w := k.widths[i]
			for r, x := range dst {
				keys[r] = keys[r]<<w | x
			}
		}
	}
	if len(k.cols) > 1 {
		ctr.IntOps += int64(n) * int64(len(k.cols))
	}
	return keys, nil
}

// sliceRows is c's rows [lo, hi), or c itself when that is all of it.
func sliceRows(c colstore.Column, lo, hi int) colstore.Column {
	if lo == 0 && hi == c.Len() {
		return c
	}
	return c.Slice(lo, hi)
}

// keyRange returns bounds on the keys of a key column — the smallest and
// largest value of ints and day number of dates, [0, 1] for bools, the
// dictionary's code range for strings — and (0, 0) for an empty one. It
// accepts exactly the columns exec.KeysInto does.
func keyRange(col colstore.Column) (lo, hi int64, err error) {
	if col.Len() == 0 {
		return 0, 0, nil
	}
	switch c := col.(type) {
	case *colstore.Int64s:
		lo, hi = spanOf(c.V)
	case *colstore.Dates:
		l, h := spanOf(c.V)
		lo, hi = int64(l), int64(h)
	case *colstore.Strings:
		// Codes index the dictionary, whose size bounds them unscanned.
		lo, hi = 0, int64(c.Dict.Len())-1
	case *colstore.Bools:
		lo, hi = 0, 1
	default:
		return 0, 0, fmt.Errorf("exec: column type %s cannot be a key", col.Type())
	}
	return lo, hi, nil
}

// spanOf returns the smallest and largest of a non-empty v.
func spanOf[T int32 | int64](v []T) (lo, hi T) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// groupScratch is one runner's reusable state for aggregating a morsel
// or a clustered chunk: the key and group-ID vectors, the grouper and the
// direct table, the chunk fold's local accumulators, and the decoded
// argument columns and the vectors their expressions evaluate into. A
// runner carries one in its exec.Scratch from morsel to morsel (and query
// to query) instead of allocating each slice afresh every time.
type groupScratch struct {
	gr    exec.Grouper
	slots []int32   // the direct table: directMaxSpan entries, all -1 between uses
	gk    []int64   // the direct table's group keys, in first-occurrence order
	keys  []int64   // the packed keys
	vec   []int64   // one trailing key column
	gids  []int32   // the local group ids
	f     []float64 // sum / min / max per local group
	cur   []float64 // foldSumF64Morsels: the open morsel's partial
	lastM []int32   // foldSumF64Morsels: the open morsel per local group
	i     []int64   // count / integer sum per local group

	args []colstore.Column // argRows: per argument column, its decoded rows
	fl   exec.Floats       // the aggregate arguments' vectors
}

// scratchOf returns ctr's runner's group-by scratch, or a fresh one.
func scratchOf(ctr *exec.Counters) *groupScratch {
	if rs := ctr.Scratch(); rs != nil {
		if rs.Group == nil {
			rs.Group = new(groupScratch)
		}
		return rs.Group.(*groupScratch)
	}
	return new(groupScratch)
}

// argRows returns rows [lo, hi) of args, each view among its columns
// decoded into s (exec.ViewRows) and the others sliced. It is valid
// until s's next argRows.
func (s *groupScratch) argRows(args *colstore.Table, lo, hi int) *colstore.Table {
	sub := args.Slice(lo, hi)
	for len(s.args) < len(sub.Cols) {
		s.args = append(s.args, nil)
	}
	for i, c := range args.Cols {
		if v, ok := c.(*colstore.View); ok {
			s.args[i] = exec.ViewRows(v, lo, hi, s.args[i])
			sub.Cols[i] = s.args[i]
		}
	}
	return sub
}

// resized returns *buf at length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resized[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// groupIDs assigns the local group IDs of one morsel's packed keys into
// s.gids, in first-occurrence order, and returns them with each group's
// key: by direct index when the key space is small, through the scratch's
// hash grouper otherwise.
func (s *groupScratch) groupIDs(keys []int64, span int, ctr *exec.Counters) ([]int32, []int64) {
	gids := resized(&s.gids, len(keys))
	if span > 0 {
		if s.slots == nil {
			s.slots = make([]int32, directMaxSpan)
			for i := range s.slots {
				s.slots[i] = -1
			}
		}
		s.gk = exec.DirectGroupIDs(keys, s.slots[:span], gids, s.gk, ctr)
		return gids, s.gk
	}
	s.gr.Reset(256)
	s.gr.GroupIDsInto(keys, gids, ctr)
	return gids, s.gr.GroupKeys()
}

// firstRows returns, for group IDs dense in first-occurrence order, the
// row base+i of each group's first occurrence.
func firstRows(gids []int32, base, ngroups int) []int32 {
	first := make([]int32, 0, ngroups)
	for i, gid := range gids {
		if int(gid) == len(first) {
			if first = append(first, int32(base+i)); len(first) == ngroups {
				break
			}
		}
	}
	return first
}

// aggState holds the accumulators for one aggregate spec — for a single
// morsel, or for the merged global result. Which slices are live depends
// on the function: Sum/Min/Max use f, Count/SumI use i, Avg uses both.
type aggState struct {
	f []float64
	i []int64
}

// groupPart is one morsel's (or clustered chunk's) aggregation state.
type groupPart struct {
	keys     []int64 // local gid -> packed key (morsels only)
	firstRow []int32 // local gid -> global row of first occurrence
	aggs     []aggState
}

// boundAggs returns g's aggregates with every evaluated argument bound to
// in (exec.BindExpr), for folding over morsels or chunks of in: a CASE
// predicate's per-table work is then done once, not once a morsel. A
// Count's argument is never evaluated, so it is not bound.
func (g *GroupBy) boundAggs(in *colstore.Table, ctr *exec.Counters) ([]AggSpec, error) {
	specs := slices.Clone(g.Aggs)
	for i := range specs {
		if specs[i].Func == Count {
			continue
		}
		var err error
		if specs[i].Arg, err = exec.BindExpr(specs[i].Arg, in, ctr); err != nil {
			return nil, fmt.Errorf("plan: agg %s: %w", specs[i].Name, err)
		}
	}
	return specs, nil
}

// foldAggs evaluates every aggregate's argument over t, into vectors
// from fl (reset first), and folds it into ngroups fresh per-group
// accumulators, gids[i] naming row i's group. All sums share one pass
// over the rows (exec.ScatterSumsF64), and Count and every Avg share one
// count; a Count's argument is never evaluated.
func foldAggs(specs []AggSpec, t *colstore.Table, gids []int32, ngroups int, fl *exec.Floats, ctr *exec.Counters) ([]aggState, error) {
	fl.Reset()
	aggs := make([]aggState, len(specs))
	var sumVals, sumAccs [][]float64
	var counted []int // the specs that take the shared count
	for si, spec := range specs {
		st := &aggs[si]
		switch spec.Func {
		case Count:
			counted = append(counted, si)
		case SumI:
			iv, err := aggValues(spec, func(e exec.Expr) ([]int64, error) { return ints(e.Eval(t, ctr)) })
			if err != nil {
				return nil, err
			}
			st.i = make([]int64, ngroups)
			exec.ScatterSumI64(gids, iv, &st.i, ngroups, ctr)
		case Sum, Avg, Min, Max:
			vals, err := aggValues(spec, func(e exec.Expr) ([]float64, error) { return exec.EvalFloats(e, t, fl, ctr) })
			if err != nil {
				return nil, err
			}
			switch spec.Func {
			case Min:
				exec.ScatterMinF64(gids, vals, &st.f, ngroups, math.Inf(1), ctr)
			case Max:
				exec.ScatterMaxF64(gids, vals, &st.f, ngroups, math.Inf(-1), ctr)
			default:
				st.f = make([]float64, ngroups)
				sumVals, sumAccs = append(sumVals, vals), append(sumAccs, st.f)
				if spec.Func == Avg {
					counted = append(counted, si)
				}
			}
		default:
			return nil, fmt.Errorf("plan: unknown aggregate %d", spec.Func)
		}
	}
	exec.ScatterSumsF64(gids, sumVals, sumAccs, ctr)
	if len(counted) > 0 {
		counts := make([]int64, ngroups)
		exec.ScatterCount(gids, counts, len(counted), ctr)
		for j, si := range counted {
			if j > 0 {
				counts = slices.Clone(counts)
			}
			aggs[si].i = counts
		}
	}
	return aggs, nil
}

// groupedMorsel is the morsel-parallel grouped aggregation: each morsel
// packs its own keys, assigns local group IDs and folds every aggregate
// in one pass, and the locals are folded into the global table in a
// final single pass, in morsel order. Because global group IDs are
// assigned in order of first key occurrence across morsels processed in
// order, group order matches the sequential Grouper exactly.
func (g *GroupBy) groupedMorsel(ctx *Context, in, args *colstore.Table, keys *groupKeys) (*colstore.Table, error) {
	n := in.NumRows()
	if err := keys.sizeParallel(ctx, n); err != nil {
		return nil, err
	}
	specs, err := g.boundAggs(args, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	parts := make([]groupPart, exec.NumMorsels(n, ctx.morselRows()))
	err = exec.RunMorsels(ctx.workers(), n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
		return aggMorsel(&parts[m], scratchOf(ctr), specs, args, keys, lo, hi, ctr)
	})
	if err != nil {
		return nil, err
	}

	// Single-threaded merge, in morsel order.
	merged := exec.NewGrouper(1024)
	var firstRow []int32
	aggs := make([]aggState, len(g.Aggs))
	for _, p := range parts {
		g2l := merged.GroupIDs(p.keys, ctx.Ctr)
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
		ctx.Ctr.AggUpdates += int64(len(p.keys)) * int64(len(g.Aggs))
		ctx.Ctr.MergeBytes += int64(len(p.keys)) * int64(12+16*len(g.Aggs))
	}
	return g.groupsTable(ctx, in, firstRow, aggs)
}

// aggMorsel aggregates rows [lo, hi) into p, working in s; args holds
// the columns the aggregates read.
func aggMorsel(p *groupPart, s *groupScratch, specs []AggSpec, args *colstore.Table, keys *groupKeys, lo, hi int, ctr *exec.Counters) error {
	packed, err := keys.pack(s, lo, hi, ctr)
	if err != nil {
		return err
	}
	gids, gk := s.groupIDs(packed, keys.span, ctr)
	p.keys = slices.Clone(gk)
	p.firstRow = firstRows(gids, lo, len(gk))
	p.aggs, err = foldAggs(specs, s.argRows(args, lo, hi), gids, len(gk), &s.fl, ctr)
	return err
}

// mergeAggState folds a morsel's local accumulators into the global
// state through the local-to-global group ID mapping.
func mergeAggState(dst, src *aggState, g2l []int32, ng int, fn AggFunc) {
	switch fn {
	case Sum:
		grow(&dst.f, ng, 0)
		for lg, v := range src.f {
			dst.f[g2l[lg]] += v
		}
	case Count, SumI:
		grow(&dst.i, ng, 0)
		for lg, v := range src.i {
			dst.i[g2l[lg]] += v
		}
	case Avg:
		grow(&dst.f, ng, 0)
		grow(&dst.i, ng, 0)
		for lg, v := range src.f {
			dst.f[g2l[lg]] += v
		}
		for lg, v := range src.i {
			dst.i[g2l[lg]] += v
		}
	case Min:
		grow(&dst.f, ng, math.Inf(1))
		for lg, v := range src.f {
			if v < dst.f[g2l[lg]] {
				dst.f[g2l[lg]] = v
			}
		}
	case Max:
		grow(&dst.f, ng, math.Inf(-1))
		for lg, v := range src.f {
			if v > dst.f[g2l[lg]] {
				dst.f[g2l[lg]] = v
			}
		}
	}
}

// grow extends *s to n entries, each new one set to fill.
func grow[T any](s *[]T, n int, fill T) {
	for len(*s) < n {
		*s = append(*s, fill)
	}
}

// groupsTable assembles a grouped aggregation's output: the key columns
// gathered at each group's first row, then one finished accumulator
// column per aggregate (i for Count and SumI, f for the rest, an Avg's
// sums divided by its counts), all in global first-occurrence order.
func (g *GroupBy) groupsTable(ctx *Context, in *colstore.Table, firstRow []int32, aggs []aggState) (*colstore.Table, error) {
	ngroups := len(firstRow)
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
			col = &colstore.Int64s{V: st.i}
		case Avg:
			for i, n := range st.i {
				if n > 0 {
					st.f[i] /= float64(n)
				}
			}
			ctx.Ctr.FloatOps += int64(ngroups)
			col = &colstore.Float64s{V: st.f}
		default:
			col = &colstore.Float64s{V: st.f}
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
