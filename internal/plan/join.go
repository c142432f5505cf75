package plan

import (
	"fmt"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// JoinKind selects the semantics of a HashJoin.
type JoinKind uint8

// The join kinds.
const (
	// Inner emits one output row per matching (build, probe) pair,
	// carrying the columns of both sides.
	Inner JoinKind = iota
	// Semi emits probe rows with at least one match (probe columns only).
	Semi
	// Anti emits probe rows with no match (probe columns only).
	Anti
	// LeftCount emits every probe row plus an int64 column counting its
	// matches, implementing COUNT-augmented left outer joins (Q13).
	LeftCount
)

// String returns the kind's name.
func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "inner"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	default:
		return "left-count"
	}
}

// HashJoin joins Build and Probe on equality of one or two key columns.
// The smaller input should be the build side; the node does not reorder
// its children.
type HashJoin struct {
	// Build and Probe are the child operators.
	Build, Probe Node
	// BuildKeys and ProbeKeys name the equi-join columns (one or two,
	// pairwise matched).
	BuildKeys, ProbeKeys []string
	// Kind selects inner/semi/anti/left-count semantics.
	Kind JoinKind
	// CountAs names the match-count column for LeftCount joins; it
	// defaults to "match_count".
	CountAs string
	// Sideways, when non-nil, links the join to a KeyFilter beneath its
	// build side: the join runs its probe side first and hands its probe
	// keys to the filter before the build side runs.
	Sideways *KeySet
}

// Execute implements Node.
func (j *HashJoin) Execute(ctx *Context) (*colstore.Table, error) {
	if len(j.BuildKeys) == 0 || len(j.BuildKeys) != len(j.ProbeKeys) {
		return nil, fmt.Errorf("plan: hash join needs matching key lists, got %v and %v", j.BuildKeys, j.ProbeKeys)
	}
	// Each side's key columns are materialized, and kept for the output
	// gathers; its other columns may stay views.
	var build, probe *colstore.Table
	var pk []int64
	var err error
	if j.Sideways != nil {
		if probe, err = ctx.runReading(j.Probe, j.ProbeKeys, false); err != nil {
			return nil, err
		}
		if pk, err = joinKeysParallel(ctx, probe, j.ProbeKeys, nil); err != nil {
			return nil, err
		}
		build, err = ctx.executeBuild(j.Build, j.Sideways, pk, j.BuildKeys, false)
	} else if build, err = ctx.runReading(j.Build, j.BuildKeys, false); err == nil {
		probe, err = ctx.runReading(j.Probe, j.ProbeKeys, false)
	}
	if err != nil {
		return nil, err
	}

	jp, err := ctx.buildPhase(build, j.BuildKeys, probe.NumRows())
	if err != nil {
		return nil, err
	}

	// Probe phase: key extraction (unless the probe side ran first), probe
	// kernel, and output gathers.
	var psp *obs.Span
	if ctx.Trace != nil {
		psp = ctx.Trace.Begin("join-probe", "probe ["+strings.Join(j.ProbeKeys, ",")+"]")
	}
	if j.Sideways == nil {
		pk, err = joinKeysParallel(ctx, probe, j.ProbeKeys, nil)
	}
	var out *colstore.Table
	if err == nil {
		out, err = j.probePhase(ctx, jp, build, probe, pk)
	}
	if err != nil {
		ctx.Trace.EndErr(psp)
		return nil, err
	}
	ctx.Trace.End(psp, int64(out.NumRows()), out.SizeBytes())
	return out, nil
}

// buildPhase is a join's build phase in both engines: key extraction plus
// the build side in whichever layout buildJoin picks, under one
// join-build span that names the layout.
func (c *Context) buildPhase(build *colstore.Table, keys []string, probeRows int) (exec.JoinProber, error) {
	var bsp *obs.Span
	if c.Trace != nil {
		bsp = c.Trace.Begin("join-build", "build ["+strings.Join(keys, ",")+"]")
	}
	bk, err := joinKeysParallel(c, build, keys, nil)
	var jp exec.JoinProber
	var layout string
	if err == nil {
		jp, layout, err = c.buildJoin(bk, probeRows)
	}
	if err != nil {
		c.Trace.EndErr(bsp)
		return nil, err
	}
	if bsp != nil {
		bsp.Label += " " + layout
	}
	c.Trace.End(bsp, int64(build.NumRows()), build.SizeBytes())
	return jp, nil
}

// buildJoin builds the build side of a hash join over its extracted keys
// — the one place the layout is chosen, for the vector and the fused
// engine and the key filter alike — and names the layout it chose (a
// positional one with its slot count only on a traced run). Every
// input of the choice is something the query observes (the keys,
// cardinalities, the memory budget) and none is the worker count, so both
// engines, every degree of parallelism and a re-dispatched cluster worker
// pick the same physical join:
//
//   - a build side over half the memory budget: radix partitions, each
//     with a chained table, the beyond-budget ones streamed through the
//     spill area, instead of letting the OS page a hash table through swap;
//   - keys spanning at most PositionalMaxSpan values, an array capped at
//     half a spilling budget: the positional layout, which hashes nothing;
//   - otherwise the chained layout.
func (c *Context) buildJoin(bk []int64, probeRows int) (exec.JoinProber, string, error) {
	if c.useSpillJoin(len(bk)) {
		sj, err := c.buildSpillJoiner(bk, probeRows)
		return sj, "radix, spilled", err
	}
	maxSpan := PositionalMaxSpan(len(bk), probeRows)
	if c.spillOK {
		maxSpan = min(maxSpan, c.MemLimitBytes/2/4) // a build that fits keeps its array under half the budget
	}
	if base, span, ok := exec.KeySpan(bk, c.Ctr); ok && int64(span) <= maxSpan {
		jt, err := exec.BuildPositionalJoinTable(bk, base, span, c.Ctr)
		if c.Trace == nil {
			return jt, "positional", err
		}
		return jt, fmt.Sprintf("positional, %d slots", span), err
	}
	jt, err := exec.BuildJoinTableParallel(bk, c.workers(), c.morselRows(), c.Ctr)
	return jt, "chained", err
}

// PositionalMaxSpan is the widest key range buildJoin lays out
// positionally for the given cardinalities: at 4 bytes a slot, the array
// may grow neither past the chained table it replaces nor past the
// probe-key vector (8 bytes a row) the join already holds.
func PositionalMaxSpan(buildRows, probeRows int) int64 {
	return max(exec.JoinTableBytes(buildRows), 8*int64(probeRows)) / 4
}

// probePhase probes with the probe side's keys pk and gathers the output.
func (j *HashJoin) probePhase(ctx *Context, jp exec.JoinProber, build, probe *colstore.Table, pk []int64) (*colstore.Table, error) {
	w, mr := ctx.workers(), ctx.morselRows()
	switch j.Kind {
	case Inner:
		bi, pi, err := jp.InnerJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		left, err := gather(ctx, probe, pi, false)
		if err != nil {
			return nil, err
		}
		right, err := gather(ctx, build, bi, false)
		if err != nil {
			return nil, err
		}
		out, err := concatTables(left, right)
		if err != nil {
			return nil, fmt.Errorf("plan: join %v/%v: %w", j.BuildKeys, j.ProbeKeys, err)
		}
		observe(ctx, build, probe, out)
		return out, nil
	case Semi:
		sel, err := jp.SemiJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		out, err := gather(ctx, probe, sel, false)
		if err != nil {
			return nil, err
		}
		observe(ctx, build, probe, out)
		return out, nil
	case Anti:
		sel, err := jp.AntiJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		out, err := gather(ctx, probe, sel, false)
		if err != nil {
			return nil, err
		}
		observe(ctx, build, probe, out)
		return out, nil
	case LeftCount:
		counts, err := jp.CountPerProbe(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		name := j.CountAs
		if name == "" {
			name = "match_count"
		}
		schema := make(colstore.Schema, 0, probe.NumCols()+1)
		cols := make([]colstore.Column, 0, probe.NumCols()+1)
		schema = append(schema, probe.Schema...)
		cols = append(cols, probe.Cols...)
		schema = append(schema, colstore.Field{Name: name, Type: colstore.Int64})
		cols = append(cols, &colstore.Int64s{V: counts})
		out, err := colstore.NewTable("", schema, cols)
		if err != nil {
			return nil, err
		}
		observe(ctx, build, probe, out)
		return out, nil
	default:
		return nil, fmt.Errorf("plan: unknown join kind %d", j.Kind)
	}
}

// Explain implements Node.
func (j *HashJoin) Explain(depth int) string {
	return fmt.Sprintf("%shash join (%s) build.%s = probe.%s\n%s%s",
		pad(depth), j.Kind,
		strings.Join(j.BuildKeys, ","), strings.Join(j.ProbeKeys, ","),
		j.Build.Explain(depth+1), j.Probe.Explain(depth+1))
}

// joinKeysInto extracts into dst the keys of rows [lo, hi) of t — or,
// given a selection, of rows sel[lo:hi] — packing two-column keys into a
// single word.
func joinKeysInto(dst []int64, t *colstore.Table, names []string, sel []int32, lo, hi int, ctr *exec.Counters) error {
	if len(names) != 1 && len(names) != 2 {
		return fmt.Errorf("plan: joins support one or two key columns, got %d", len(names))
	}
	rows := sel
	if sel != nil {
		rows = sel[lo:hi]
	}
	col := func(name string) (colstore.Column, error) {
		c, err := t.ColByName(name)
		if err == nil && sel == nil && hi-lo < c.Len() {
			c = c.Slice(lo, hi)
		}
		return c, err
	}
	a, err := col(names[0])
	if err != nil {
		return err
	}
	if err := exec.KeysInto(dst, a, rows, ctr); err != nil || len(names) == 1 {
		return err
	}
	b, err := col(names[1])
	if err != nil {
		return err
	}
	low := make([]int64, hi-lo)
	if err := exec.KeysInto(low, b, rows, ctr); err != nil {
		return err
	}
	return exec.CombineKeysInto(dst, dst, low, 31, ctr)
}

// ownKeys returns a dense single key column's own storage, charged as the
// copy it replaces. Safe because nothing writes into a key vector.
func ownKeys(t *colstore.Table, names []string, sel []int32, ctr *exec.Counters) ([]int64, bool) {
	if len(names) != 1 || sel != nil {
		return nil, false
	}
	c, err := t.ColByName(names[0])
	v, ok := c.(*colstore.Int64s)
	if err != nil || !ok {
		return nil, false
	}
	ctr.SeqBytes += v.SizeBytes()
	return v.V, true
}

// joinKeysParallel extracts the join keys of t's rows — all of them, or
// those a non-nil sel names — with the per-row key extraction and packing
// split into morsels, each decoding straight into its slot of the output.
// Both kernels are elementwise, so the output is identical to the
// sequential path. A dense single key is the column's own (ownKeys).
// No key column may be a view: callers materialize them first.
func joinKeysParallel(ctx *Context, t *colstore.Table, names []string, sel []int32) ([]int64, error) {
	if k, ok := ownKeys(t, names, sel, ctx.Ctr); ok {
		return k, nil
	}
	n := t.NumRows()
	if sel != nil {
		n = len(sel)
	}
	out := make([]int64, n)
	var err error
	if exec.Serial(ctx.Workers, n, ctx.MorselRows) {
		err = joinKeysInto(out, t, names, sel, 0, n, ctx.Ctr)
	} else {
		err = exec.RunMorsels(ctx.workers(), n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
			return joinKeysInto(out[lo:hi], t, names, sel, lo, hi, ctr)
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// concatTables concatenates the columns of two equal-length tables,
// rejecting duplicate column names (rename one side first).
func concatTables(a, b *colstore.Table) (*colstore.Table, error) {
	if a.NumRows() != b.NumRows() {
		return nil, fmt.Errorf("row count mismatch: %d vs %d", a.NumRows(), b.NumRows())
	}
	schema := make(colstore.Schema, 0, a.NumCols()+b.NumCols())
	cols := make([]colstore.Column, 0, a.NumCols()+b.NumCols())
	schema = append(schema, a.Schema...)
	cols = append(cols, a.Cols...)
	for i, f := range b.Schema {
		if a.Schema.Index(f.Name) >= 0 {
			return nil, fmt.Errorf("duplicate column %q after join; rename one side", f.Name)
		}
		schema = append(schema, f)
		cols = append(cols, b.Cols[i])
	}
	return colstore.NewTable("", schema, cols)
}
