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
			switch spec.Func {
			case Count:
				scatterTo(outI[si], l2g, s.foldCount(lgids, ng, c))
			case SumI:
				scatterTo(outI[si], l2g, s.foldSumI64(lgids, iargs[si][lo:hi], ng, c))
			case Sum:
				scatterTo(outF[si], l2g, s.foldSumF64Morsels(lgids, rows, fargs[si][lo:hi], ng, mr, c))
			case Avg:
				sums := s.foldSumF64Morsels(lgids, rows, fargs[si][lo:hi], ng, mr, c)
				counts := s.foldCount(lgids, ng, c)
				for lg, gg := range l2g {
					outF[si][gg] = sums[lg] / float64(counts[lg]) // a group has a row
				}
			case Min:
				scatterTo(outF[si], l2g, s.foldMinMaxF64(lgids, fargs[si][lo:hi], ng, false, c))
			case Max:
				scatterTo(outF[si], l2g, s.foldMinMaxF64(lgids, fargs[si][lo:hi], ng, true, c))
			}
		}
		radixScratchPool.Put(s)
		return nil
	})
	if err != nil {
		return nil, err
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

// foldSumF64Morsels sums vals per group, cutting the fold at every morsel
// boundary of the original row numbers: within a morsel values add left
// to right, and completed morsel partials add in morsel order. That is
// bit-for-bit the association groupedMorsel produces with per-morsel
// ScatterSumF64 partials merged in morsel order.
func (s *radixScratch) foldSumF64Morsels(gids, rows []int32, vals []float64, ng, morselRows int, ctr *exec.Counters) []float64 {
	tot, cur, lastM := resized(&s.f, ng), resized(&s.cur, ng), resized(&s.lastM, ng)
	clear(tot)
	clear(cur)
	for i := range lastM {
		lastM[i] = -1
	}
	for i, gid := range gids {
		m := int32(int(rows[i]) / morselRows)
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
