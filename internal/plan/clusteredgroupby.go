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
	"slices"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

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
// n-sized scratch — and each folds with the kernels below in its
// runner's scratch.
func (g *GroupBy) groupedClustered(ctx *Context, in, args *colstore.Table, keys *groupKeys, key string, cuts []int32) (*colstore.Table, error) {
	nc := len(cuts) - 1
	if ctx.Trace != nil {
		sp := ctx.Trace.Begin("group-partition", fmt.Sprintf("clustered on %s, %d chunks", key, nc))
		ctx.Trace.End(sp, int64(in.NumRows()), 0)
	}

	specs, err := g.boundAggs(args, ctx.Ctr)
	if err != nil {
		return nil, err
	}
	mr := ctx.morselRows()
	parts := make([]groupPart, nc)
	err = exec.RunMorsels(ctx.workers(), nc, 1, ctx.Ctr, func(c, _, _ int, ctr *exec.Counters) error {
		return aggChunk(&parts[c], scratchOf(ctr), specs, args, keys, int(cuts[c]), int(cuts[c+1]), mr, ctr)
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
	aggs := make([]aggState, len(g.Aggs))
	for si := range aggs {
		st, first := &aggs[si], parts[0].aggs[si]
		if first.f != nil {
			st.f = make([]float64, 0, ngroups)
		}
		if first.i != nil {
			st.i = make([]int64, 0, ngroups)
		}
		for i := range parts {
			st.f = append(st.f, parts[i].aggs[si].f...)
			st.i = append(st.i, parts[i].aggs[si].i...)
		}
	}
	ctx.Ctr.MergeBytes += int64(ngroups) * int64(4+8*len(g.Aggs))
	return g.groupsTable(ctx, in, firstRow, aggs)
}

// aggChunk aggregates rows [lo, hi) — whole groups only — into p; args
// holds the columns the aggregates read.
func aggChunk(p *groupPart, s *groupScratch, specs []AggSpec, args *colstore.Table, keys *groupKeys, lo, hi, morselRows int, ctr *exec.Counters) error {
	// IDs never leave the chunk, so several keys pack in the bit widths
	// of the chunk's own key ranges.
	local := *keys
	if err := local.sizeRows(lo, hi); err != nil {
		return err
	}
	packed, err := local.pack(s, lo, hi, ctr)
	if err != nil {
		return err
	}

	// Local group IDs, dense in first-occurrence order: by comparing
	// neighbours when the packed key itself never decreases, through a
	// cache-resident grouper otherwise.
	gids := resized(&s.gids, hi-lo)
	ng, sorted := exec.GroupIDsSorted(packed, gids, ctr)
	if !sorted {
		s.gr.Reset(256)
		s.gr.GroupIDsCacheResident(packed, gids, ctr)
		ng = s.gr.NumGroups()
	}
	p.firstRow = firstRows(gids, lo, ng)

	p.aggs = make([]aggState, len(specs))
	var sub *colstore.Table
	for si, spec := range specs {
		if sub == nil && spec.Func != Count {
			sub = s.argRows(args, lo, hi)
		}
		s.fl.Reset()
		var fv []float64
		var iv []int64
		var err error
		switch spec.Func {
		case Count:
			// Pure row count; the argument (if any) is not evaluated.
		case SumI:
			iv, err = aggValues(spec, func(e exec.Expr) ([]int64, error) { return ints(e.Eval(sub, ctr)) })
		case Sum, Avg, Min, Max:
			fv, err = aggValues(spec, func(e exec.Expr) ([]float64, error) { return exec.EvalFloats(e, sub, &s.fl, ctr) })
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

// The fold kernels aggregate one chunk into the scratch's local
// accumulators; the returned slice is valid until the scratch's next
// fold of the same kind.

// fold aggregates one chunk's rows for one aggregate and returns its
// accumulators per local group: i for Count and SumI, the sums in f and
// the counts in i for Avg, f for the rest. The chunk's first row is row
// base of the input.
func (s *groupScratch) fold(fn AggFunc, gids []int32, base int, fv []float64, iv []int64, ng, morselRows int, ctr *exec.Counters) (f []float64, i []int64) {
	switch fn {
	case Count:
		return nil, s.foldCount(gids, ng, ctr)
	case SumI:
		i = resized(&s.i, ng)
		clear(i)
		exec.ScatterSumI64(gids, iv, &i, ng, ctr)
		return nil, i
	case Sum:
		return s.foldSumF64Morsels(gids, base, fv, ng, morselRows, ctr), nil
	case Avg:
		return s.foldSumF64Morsels(gids, base, fv, ng, morselRows, ctr), s.foldCount(gids, ng, ctr)
	case Min:
		f = filled(&s.f, ng, math.Inf(1))
		exec.ScatterMinF64(gids, fv, &f, ng, math.Inf(1), ctr)
		return f, nil
	default:
		f = filled(&s.f, ng, math.Inf(-1))
		exec.ScatterMaxF64(gids, fv, &f, ng, math.Inf(-1), ctr)
		return f, nil
	}
}

// filled returns *buf at length n with every entry v.
func filled(buf *[]float64, n int, v float64) []float64 {
	out := resized(buf, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// foldSumF64Morsels sums vals per group, cutting the fold at every morsel
// boundary of the original row numbers base+i: within a morsel values add
// left to right, and completed morsel partials add in morsel order. That
// is bit-for-bit the association groupedMorsel produces with per-morsel
// partials merged in morsel order. The chunk is walked one morsel segment
// at a time, so no row pays a division to find its morsel.
func (s *groupScratch) foldSumF64Morsels(gids []int32, base int, vals []float64, ng, morselRows int, ctr *exec.Counters) []float64 {
	tot, cur, lastM := resized(&s.f, ng), resized(&s.cur, ng), resized(&s.lastM, ng)
	clear(tot)
	clear(cur)
	for i := range lastM {
		lastM[i] = -1
	}
	for lo := 0; lo < len(gids); {
		m := (base + lo) / morselRows
		hi := min(len(gids), (m+1)*morselRows-base)
		seg := vals[lo:hi]
		for i, gid := range gids[lo:hi] {
			if lastM[gid] != int32(m) {
				if lastM[gid] >= 0 {
					tot[gid] += cur[gid]
					cur[gid] = 0
				}
				lastM[gid] = int32(m)
			}
			cur[gid] += seg[i]
		}
		lo = hi
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
	exec.ScatterCount(gids, out, 1, ctr)
	return out
}
