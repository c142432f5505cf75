package plan

// Radix-partitioned grouped aggregation. When the estimated group count
// would blow the LLC budget, the packed keys are radix-partitioned first
// so each partition's grouper stays cache-resident; partitions aggregate
// independently as morsels.
//
// The output is byte-identical to groupedMorsel's. Group order: within a
// partition rows arrive in ascending original order (the radix scatter
// is stable), so each partition-local group's first occurrence is the
// key's global first occurrence. First-occurrence rows are distinct
// integers in [0, n), so a group's position in global first-occurrence
// order — the order both direct paths assign group IDs in — is the rank
// of its first row among all first rows: every partition marks its first
// rows in one n-slot array (a row belongs to exactly one partition, so
// the writes are disjoint), one prefix sweep turns marks into ranks, and
// every partition then writes its groups straight to out[rank]. No
// comparison sort, O(n) whatever the group count. Float sums:
// groupedMorsel folds rows left-to-right within each morsel and then
// folds the per-morsel partials in morsel order, so the radix path
// reproduces that exact association by cutting its per-group fold at
// every morsel boundary.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// estimateGroups estimates the distinct count of keys from a strided
// sample pushed through a small grouper. The stride depends only on the
// input size, so the estimate — and the plan choice it feeds — is
// deterministic and worker-independent. The estimate only sizes the
// radix fan-out; an underestimate costs cache residency (and is caught
// by the hardware model via MaxPartitionBytes), never correctness.
func estimateGroups(keys []int64, ctr *exec.Counters) int {
	n := len(keys)
	stride := n / 4096
	if stride < 1 {
		stride = 1
	}
	sample := make([]int64, 0, n/stride+1)
	for i := 0; i < n; i += stride {
		sample = append(sample, keys[i])
	}
	g := exec.NewGrouper(1024)
	g.GroupIDs(sample, ctr)
	d := g.NumGroups()
	if d*2 < len(sample) {
		// Keys repeat heavily inside the sample: the sample has likely
		// seen most groups, so the sample's distinct count is the
		// estimate.
		return d
	}
	// Mostly-unique sample: distinct count scales with the stride.
	est := d * stride
	if est > n {
		est = n
	}
	return est
}

// radixGroupBytesPerRow estimates the per-group partition footprint for
// sizing the fan-out: grouper slots (2x occupancy, key+gid) plus
// first-row and accumulator state.
func radixGroupBytesPerRow(naggs int) int64 {
	return int64(24 + 4 + 16*naggs)
}

// useRadixGroupBy mirrors useRadixJoin: the decision depends only on the
// estimated group count and the LLC budget, never the worker count.
func useRadixGroupBy(estGroups int, llcBytes int64) bool {
	return llcBytes > 0 && exec.GrouperBytes(estGroups) > llcBytes
}

// radixScratch is the per-worker state one partition's aggregation
// needs: the cache-sized grouper and the partition-local accumulators.
// Partitions are small and there are 64 or more of them per group-by, so
// a worker carries one scratch from partition to partition (and query to
// query) instead of allocating each slice afresh every time.
type radixScratch struct {
	gr    exec.Grouper
	keys  []int64   // clustered path: the chunk's packed keys
	vec   []int64   // clustered path: one trailing key column of the chunk
	gids  []int32   // clustered path: the chunk's local group ids
	l2g   []int32   // local gid -> global group id
	f     []float64 // sum / min / max per local group
	cur   []float64 // foldSumF64Morsels: the open morsel's partial
	lastM []int32   // foldSumF64Morsels: the open morsel per local group
	i     []int64   // count / integer sum per local group
}

var radixScratchPool = sync.Pool{New: func() any { return new(radixScratch) }}

// groupedRadix is the radix-partitioned grouped aggregation path.
func (g *GroupBy) groupedRadix(ctx *Context, in *colstore.Table, packed []int64, estGroups int, target int64) (*colstore.Table, error) {
	w, mr := ctx.workers(), ctx.morselRows()

	bits := exec.RadixBits(estGroups, radixGroupBytesPerRow(len(g.Aggs)), target/2)
	sp := ctx.Trace.Begin("group-partition",
		fmt.Sprintf("radix %d-way, %d pass(es)", 1<<bits, exec.RadixPasses(bits)))
	rp, err := exec.RadixPartitionKeys(packed, nil, bits, w, mr, ctx.Ctr)
	if err != nil {
		ctx.Trace.EndErr(sp)
		return nil, err
	}
	ctx.Trace.End(sp, int64(len(packed)), int64(len(packed))*12)

	// Evaluate aggregate arguments once over the unpartitioned input
	// (elementwise, so values match the per-morsel evaluation of the
	// direct path), then route them through the same partition order as
	// the keys.
	fargs := make([][]float64, len(g.Aggs))
	iargs := make([][]int64, len(g.Aggs))
	for si, spec := range g.Aggs {
		switch spec.Func {
		case Count:
			// Pure row count; the argument (if any) is not evaluated,
			// matching aggMorsel.
		case SumI:
			iv, err := aggArgI(ctx, in, spec)
			if err != nil {
				return nil, err
			}
			iargs[si], err = rp.GatherI64(iv, w, mr, ctx.Ctr)
			if err != nil {
				return nil, err
			}
		case Sum, Avg, Min, Max:
			fv, err := aggArg(ctx, in, spec)
			if err != nil {
				return nil, err
			}
			fargs[si], err = rp.GatherF64(fv, w, mr, ctx.Ctr)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("plan: unknown aggregate %d", spec.Func)
		}
	}

	// Pass 1: each partition assigns local group IDs in a cache-sized
	// grouper and marks the row every group first occurs at. Partitions
	// are morsels, so worker count never changes results.
	n, np := len(packed), rp.NumPartitions()
	gids := make([]int32, n)  // partition order, like rp.Keys
	rank := make([]int32, n)  // by original row: 1 marks a first occurrence
	nlocal := make([]int, np) // groups per partition
	err = exec.RunMorsels(w, np, 1, ctx.Ctr, func(p, _, _ int, c *exec.Counters) error {
		lo, hi := int(rp.Off[p]), int(rp.Off[p+1])
		s := radixScratchPool.Get().(*radixScratch)
		s.gr.Reset(256)
		s.gr.GroupIDsCacheResident(rp.Keys[lo:hi], gids[lo:hi], c)
		rows := rp.Rows[lo:hi]
		var ng int32 // local IDs are dense in first-occurrence order
		for i, gid := range gids[lo:hi] {
			if gid == ng {
				rank[rows[i]] = 1
				ng++
			}
		}
		nlocal[p] = int(ng)
		radixScratchPool.Put(s)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The sweep: a first row's global group ID is the number of first
	// rows before it.
	ngroups := 0
	for _, ng := range nlocal {
		ngroups += ng
	}
	firstRow := make([]int32, 0, ngroups)
	for row, first := range rank {
		if first != 0 {
			rank[row] = int32(len(firstRow))
			firstRow = append(firstRow, int32(row))
		}
	}
	ctx.Ctr.AggUpdates += int64(ngroups) * int64(len(g.Aggs))
	ctx.Ctr.MergeBytes += int64(ngroups) * int64(12+16*len(g.Aggs))

	outF := make([][]float64, len(g.Aggs))
	outI := make([][]int64, len(g.Aggs))
	for si, spec := range g.Aggs {
		switch spec.Func {
		case Count, SumI:
			outI[si] = make([]int64, ngroups)
		default:
			outF[si] = make([]float64, ngroups)
		}
	}

	// Pass 2: each partition folds its rows into cache-resident local
	// accumulators and writes every finished group to its global slot.
	// Slots are disjoint across partitions.
	err = exec.RunMorsels(w, np, 1, ctx.Ctr, func(p, _, _ int, c *exec.Counters) error {
		lo, hi := int(rp.Off[p]), int(rp.Off[p+1])
		lgids, rows, ng := gids[lo:hi], rp.Rows[lo:hi], nlocal[p]
		s := radixScratchPool.Get().(*radixScratch)
		l2g := resized(&s.l2g, ng)
		next := 0
		for i, gid := range lgids {
			if int(gid) == next {
				l2g[next] = rank[rows[i]]
				next++
			}
		}
		for si, spec := range g.Aggs {
			var fv []float64
			var iv []int64
			if fargs[si] != nil {
				fv = fargs[si][lo:hi]
			}
			if iargs[si] != nil {
				iv = iargs[si][lo:hi]
			}
			if f, i := s.fold(spec.Func, lgids, rows, 0, fv, iv, ng, mr, c); i != nil {
				scatterTo(outI[si], l2g, i)
			} else {
				scatterTo(outF[si], l2g, f)
			}
		}
		radixScratchPool.Put(s)
		return nil
	})
	if err != nil {
		return nil, err
	}

	return g.groupsTable(ctx, in, firstRow, outF, outI)
}

// groupsTable assembles a partitioned aggregation's output: the key
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
// smallest LLC the planner targets.
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

// clusteredOff lets tests compare against the paths a clustered input
// would otherwise never reach.
var clusteredOff bool

// groupedClustered aggregates an input that clusteredCuts cut into chunks
// no group crosses. The chunks are the partitions — no scatter, no
// n-sized scratch — and each folds with the radix path's kernels in a
// pooled per-worker scratch. Chunk order then chunk-local first-occurrence
// order is global first-occurrence order, and float sums are cut at the
// morsel boundaries of the original rows, so the output is byte-identical
// to groupedMorsel's.
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
		s := radixScratchPool.Get().(*radixScratch)
		defer radixScratchPool.Put(s)
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
func (g *GroupBy) aggChunk(p *groupPart, s *radixScratch, in *colstore.Table, keyCols []colstore.Column, lo, hi, morselRows int, ctr *exec.Counters) error {
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
		f, i := s.fold(spec.Func, gids, nil, lo, fv, iv, ng, morselRows, ctr)
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

// scatterTo writes each partition-local accumulator to its global slot.
func scatterTo[T any](out []T, l2g []int32, acc []T) {
	for lg, gg := range l2g {
		out[gg] = acc[lg]
	}
}

// The fold kernels aggregate one partition into the scratch's local
// accumulators; the returned slice is valid until the scratch's next
// fold of the same kind.

// fold aggregates one partition's rows for one aggregate and returns the
// finished accumulator per local group: i for Count and SumI, f for the
// rest. rows and base locate the rows as foldSumF64Morsels needs.
func (s *radixScratch) fold(fn AggFunc, gids, rows []int32, base int, fv []float64, iv []int64, ng, morselRows int, ctr *exec.Counters) (f []float64, i []int64) {
	switch fn {
	case Count:
		return nil, s.foldCount(gids, ng, ctr)
	case SumI:
		return nil, s.foldSumI64(gids, iv, ng, ctr)
	case Sum:
		return s.foldSumF64Morsels(gids, rows, base, fv, ng, morselRows, ctr), nil
	case Avg:
		sums := s.foldSumF64Morsels(gids, rows, base, fv, ng, morselRows, ctr)
		for lg, n := range s.foldCount(gids, ng, ctr) {
			sums[lg] /= float64(n) // a group has a row
		}
		return sums, nil
	default:
		return s.foldMinMaxF64(gids, fv, ng, fn == Max, ctr), nil
	}
}

// foldSumF64Morsels sums vals per group, cutting the fold at every morsel
// boundary of the original row numbers — rows[i], or base+i when rows is
// nil (a contiguous range): within a morsel values add left to right, and
// completed morsel partials add in morsel order. That is bit-for-bit the
// association groupedMorsel produces with per-morsel ScatterSumF64
// partials merged in morsel order.
func (s *radixScratch) foldSumF64Morsels(gids, rows []int32, base int, vals []float64, ng, morselRows int, ctr *exec.Counters) []float64 {
	tot, cur, lastM := resized(&s.f, ng), resized(&s.cur, ng), resized(&s.lastM, ng)
	clear(tot)
	clear(cur)
	for i := range lastM {
		lastM[i] = -1
	}
	for i, gid := range gids {
		row := base + i
		if rows != nil {
			row = int(rows[i])
		}
		m := int32(row / morselRows)
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
func (s *radixScratch) foldCount(gids []int32, ng int, ctr *exec.Counters) []int64 {
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
func (s *radixScratch) foldSumI64(gids []int32, vals []int64, ng int, ctr *exec.Counters) []int64 {
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
func (s *radixScratch) foldMinMaxF64(gids []int32, vals []float64, ng int, max bool, ctr *exec.Counters) []float64 {
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
