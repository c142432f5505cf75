package plan

// Clustered grouped aggregation. When a group key arrives non-decreasing,
// every group is one contiguous row range, so the input cuts into chunks
// no group crosses; each chunk aggregates in a cache-sized grouper and
// chunk-local accumulators, with no scatter and no n-sized scratch.
//
// The output is byte-identical to groupedMorsel's. Group order: chunk
// order then chunk-local first-occurrence order is global first-occurrence
// order — the order groupedMorsel assigns group IDs in. Float sums:
// groupedMorsel folds rows left-to-right within each morsel and then folds
// the per-morsel partials in morsel order, so the chunk fold reproduces
// that exact association by cutting its per-group fold at every morsel
// boundary of the original rows.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// groupScratch is the per-worker state one chunk's aggregation needs: the
// cache-sized grouper and the chunk-local accumulators. A worker carries
// one scratch from chunk to chunk (and query to query) instead of
// allocating each slice afresh every time.
type groupScratch struct {
	gr    exec.Grouper
	keys  []int64   // the chunk's packed keys
	vec   []int64   // one trailing key column of the chunk
	gids  []int32   // the chunk's local group ids
	f     []float64 // sum / min / max per local group
	cur   []float64 // foldSumF64Morsels: the open morsel's partial
	lastM []int32   // foldSumF64Morsels: the open morsel per local group
	i     []int64   // count / integer sum per local group
}

var groupScratchPool = sync.Pool{New: func() any { return new(groupScratch) }}

// groupsTable assembles the clustered aggregation's output: the key
// columns gathered at each group's first row, then one finished
// accumulator column per aggregate (outI for Count and SumI, outF for
// the rest), all in global first-occurrence order.
func (g *GroupBy) groupsTable(ctx *Context, in *colstore.Table, firstRow []int32, outF [][]float64, outI [][]int64) (*colstore.Table, error) {
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
		var col colstore.Column
		if outI[si] != nil {
			col = &colstore.Int64s{V: outI[si]}
		} else {
			col = &colstore.Float64s{V: outF[si]}
		}
		if spec.Func == Avg {
			ctx.Ctr.FloatOps += int64(ngroups)
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

// clusteredCuts looks for a key column that arrives clustered — values
// never decreasing, so every group is one contiguous row range — and
// returns its name with the rows to cut the input at. The chunk budget is
// a quarter morsel: a chunk then holds fewer than half a morsel of rows,
// and its grouper (at the default morsel, under 384 KiB) stays inside the
// Pi's 512 KiB L2, the smallest LLC among the paper's profiles.
func (g *GroupBy) clusteredCuts(ctx *Context, in *colstore.Table) (string, []int32) {
	if clusteredOff {
		return "", nil
	}
	for _, k := range g.Keys {
		c, err := in.ColByName(k)
		if err != nil {
			return "", nil // the regular path reports it
		}
		if cuts := exec.ClusteredCuts(c, ctx.morselRows()/4, ctx.Ctr); cuts != nil {
			return k, cuts
		}
	}
	return "", nil
}

// clusteredOff lets tests compare against the morsel path a clustered
// input would otherwise never reach.
var clusteredOff bool

// groupedClustered aggregates an input that clusteredCuts cut into chunks
// no group crosses. The chunks are the partitions — no scatter, no
// n-sized scratch — and each folds with the kernels below in a pooled
// per-worker scratch.
func (g *GroupBy) groupedClustered(ctx *Context, in *colstore.Table, key string, cuts []int32) (*colstore.Table, error) {
	nc := len(cuts) - 1
	sp := ctx.Trace.Begin("group-partition", fmt.Sprintf("clustered on %s, %d chunks", key, nc))
	ctx.Trace.End(sp, int64(in.NumRows()), 0)

	keyCols := make([]colstore.Column, len(g.Keys))
	for i, k := range g.Keys {
		c, err := in.ColByName(k)
		if err != nil {
			return nil, err
		}
		keyCols[i] = c
	}
	mr := ctx.morselRows()
	parts := make([]groupPart, nc)
	err := exec.RunMorsels(ctx.workers(), nc, 1, ctx.Ctr, func(c, _, _ int, ctr *exec.Counters) error {
		s := groupScratchPool.Get().(*groupScratch)
		defer groupScratchPool.Put(s)
		return g.aggChunk(&parts[c], s, in, keyCols, int(cuts[c]), int(cuts[c+1]), mr, ctr)
	})
	if err != nil {
		return nil, err
	}

	// Chunks finish in any order, so each kept its groups; lay them end
	// to end.
	ngroups := 0
	for i := range parts {
		ngroups += len(parts[i].firstRow)
	}
	firstRow := make([]int32, 0, ngroups)
	for i := range parts {
		firstRow = append(firstRow, parts[i].firstRow...)
	}
	outF := make([][]float64, len(g.Aggs))
	outI := make([][]int64, len(g.Aggs))
	for si, spec := range g.Aggs {
		if spec.Func == Count || spec.Func == SumI {
			outI[si] = make([]int64, 0, ngroups)
			for i := range parts {
				outI[si] = append(outI[si], parts[i].aggs[si].i...)
			}
		} else {
			outF[si] = make([]float64, 0, ngroups)
			for i := range parts {
				outF[si] = append(outF[si], parts[i].aggs[si].f...)
			}
		}
	}
	ctx.Ctr.MergeBytes += int64(ngroups) * int64(4+8*len(g.Aggs))
	return g.groupsTable(ctx, in, firstRow, outF, outI)
}

// aggChunk aggregates rows [lo, hi) — whole groups only — into p.
func (g *GroupBy) aggChunk(p *groupPart, s *groupScratch, in *colstore.Table, keyCols []colstore.Column, lo, hi, morselRows int, ctr *exec.Counters) error {
	// Extract and pack the keys. IDs never leave the chunk, so bit widths
	// come from the chunk's own maxima.
	n := hi - lo
	keys, vec := resized(&s.keys, n), resized(&s.vec, n)
	var total uint
	for i, c := range keyCols {
		dst := keys
		if i > 0 {
			dst = vec
		}
		if err := exec.KeysInto(dst, c.Slice(lo, hi), nil, ctr); err != nil {
			return fmt.Errorf("plan: group key %s: %w", g.Keys[i], err)
		}
		if len(keyCols) == 1 {
			break
		}
		var max int64
		for _, x := range dst {
			if x < 0 {
				return fmt.Errorf("plan: group key %s has negative value %d", g.Keys[i], x)
			}
			if x > max {
				max = x
			}
		}
		b := uint(bits.Len64(uint64(max | 1)))
		if total += b; total > 63 {
			return fmt.Errorf("plan: group keys %v need more than 63 bits", g.Keys)
		}
		if i > 0 {
			for r, x := range vec {
				keys[r] = keys[r]<<b | x
			}
		}
		ctr.IntOps += int64(n)
	}

	// Local group IDs, dense in first-occurrence order: by comparing
	// neighbours when the packed key itself never decreases, through a
	// cache-resident grouper otherwise.
	gids := resized(&s.gids, n)
	ng, sorted := exec.GroupIDsSorted(keys, gids, ctr)
	if !sorted {
		s.gr.Reset(256)
		s.gr.GroupIDsCacheResident(keys, gids, ctr)
		ng = s.gr.NumGroups()
	}
	first := make([]int32, 0, ng)
	for i, gid := range gids {
		if int(gid) == len(first) {
			first = append(first, int32(lo+i))
		}
	}
	p.firstRow = first

	p.aggs = make([]aggState, len(g.Aggs))
	var sub *colstore.Table
	for si, spec := range g.Aggs {
		if sub == nil && spec.Func != Count {
			sub = in.Slice(lo, hi)
		}
		var fv []float64
		var iv []int64
		var err error
		switch spec.Func {
		case Count:
			// Pure row count; the argument (if any) is not evaluated.
		case SumI:
			iv, err = evalAggArgI(sub, spec, ctr)
		case Sum, Avg, Min, Max:
			fv, err = evalAggArg(sub, spec, ctr)
		default:
			err = fmt.Errorf("plan: unknown aggregate %d", spec.Func)
		}
		if err != nil {
			return err
		}
		f, i := s.fold(spec.Func, gids, lo, fv, iv, ng, morselRows, ctr)
		p.aggs[si] = aggState{f: slices.Clone(f), i: slices.Clone(i)}
	}
	return nil
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

// The fold kernels aggregate one chunk into the scratch's local
// accumulators; the returned slice is valid until the scratch's next
// fold of the same kind.

// fold aggregates one chunk's rows for one aggregate and returns the
// finished accumulator per local group: i for Count and SumI, f for the
// rest. The chunk's first row is row base of the input.
func (s *groupScratch) fold(fn AggFunc, gids []int32, base int, fv []float64, iv []int64, ng, morselRows int, ctr *exec.Counters) (f []float64, i []int64) {
	switch fn {
	case Count:
		return nil, s.foldCount(gids, ng, ctr)
	case SumI:
		return nil, s.foldSumI64(gids, iv, ng, ctr)
	case Sum:
		return s.foldSumF64Morsels(gids, base, fv, ng, morselRows, ctr), nil
	case Avg:
		sums := s.foldSumF64Morsels(gids, base, fv, ng, morselRows, ctr)
		for lg, n := range s.foldCount(gids, ng, ctr) {
			sums[lg] /= float64(n) // a group has a row
		}
		return sums, nil
	default:
		return s.foldMinMaxF64(gids, fv, ng, fn == Max, ctr), nil
	}
}

// foldSumF64Morsels sums vals per group, cutting the fold at every morsel
// boundary of the original row numbers base+i: within a morsel values add
// left to right, and completed morsel partials add in morsel order. That
// is bit-for-bit the association groupedMorsel produces with per-morsel
// ScatterSumF64 partials merged in morsel order.
func (s *groupScratch) foldSumF64Morsels(gids []int32, base int, vals []float64, ng, morselRows int, ctr *exec.Counters) []float64 {
	tot, cur, lastM := resized(&s.f, ng), resized(&s.cur, ng), resized(&s.lastM, ng)
	clear(tot)
	clear(cur)
	for i := range lastM {
		lastM[i] = -1
	}
	for i, gid := range gids {
		m := int32((base + i) / morselRows)
		if m != lastM[gid] {
			if lastM[gid] >= 0 {
				tot[gid] += cur[gid]
				cur[gid] = 0
			}
			lastM[gid] = m
		}
		cur[gid] += vals[i]
	}
	for gid := range tot {
		if lastM[gid] >= 0 {
			tot[gid] += cur[gid]
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids)) + int64(ng)
	return tot
}

// foldCount counts rows per group.
func (s *groupScratch) foldCount(gids []int32, ng int, ctr *exec.Counters) []int64 {
	out := resized(&s.i, ng)
	clear(out)
	for _, gid := range gids {
		out[gid]++
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
	return out
}

// foldSumI64 sums int64 vals per group (exact, so no morsel cuts needed).
func (s *groupScratch) foldSumI64(gids []int32, vals []int64, ng int, ctr *exec.Counters) []int64 {
	out := resized(&s.i, ng)
	clear(out)
	for i, gid := range gids {
		out[gid] += vals[i]
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
	return out
}

// foldMinMaxF64 folds min (or max) per group with the strict comparison
// the Scatter kernels use: NaN inputs are skipped and equal-comparing
// values keep the first in row order, so the result is independent of
// the morsel decomposition.
func (s *groupScratch) foldMinMaxF64(gids []int32, vals []float64, ng int, max bool, ctr *exec.Counters) []float64 {
	fill := math.Inf(1)
	if max {
		fill = math.Inf(-1)
	}
	out := resized(&s.f, ng)
	for i := range out {
		out[i] = fill
	}
	if max {
		for i, gid := range gids {
			if vals[i] > out[gid] {
				out[gid] = vals[i]
			}
		}
	} else {
		for i, gid := range gids {
			if vals[i] < out[gid] {
				out[gid] = vals[i]
			}
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids))
	return out
}
