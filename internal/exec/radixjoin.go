package exec

// The compact layout of an equi-join's build side. The build is radix-
// partitioned and each partition gets a PartTable — an open-addressing
// linear-probe table whose slots map a key to a dense group of build
// rows sitting contiguously in a payload array — sized to stay
// cache-resident. Probe sides are partitioned with the same fan-out, so
// every table access is a CacheRandomAccess instead of the chained
// JoinTable's DRAM pointer chase.
//
// The per-partition probe kernels are written once, as PartTable
// methods, and driven two ways, both with partitions as morsels:
// RadixJoinTable runs them over resident partitions; the plan layer's
// spill joiner also runs them over partitions read back from the spill
// area. Every partition's table packs its groups into its own window of
// one payload array shared by the whole build side, so a group is
// addressed by a global payload index and outlives its table.
//
// Probe results are byte-identical to JoinTable's: the chained table
// visits a key's duplicates in descending build-row order (inserts
// prepend), and the payload here stores them ascending and emits them
// reversed. An inner join visits every partition once: the count pass
// records each probe row's match count and where its group starts in the
// payload, a prefix sum over probe rows (MatchOffsets) sizes the output,
// and FillMatches sweeps the probe rows in their original order, so every
// match lands exactly where the sequential probe would have appended it.

// RadixBuildBytesPerRow estimates the per-build-row footprint of a
// partition's table (2x slots of key+group, payload row, amortized group
// arrays); RadixBits uses it to pick the fan-out.
const RadixBuildBytesPerRow = 32

// RadixJoinConfig controls BuildRadixTables.
type RadixJoinConfig struct {
	// Bloom adds a probe-side pre-filter built over the build keys.
	// Worth it only for selective joins (large probe, small hit rate);
	// the planner decides.
	Bloom bool
}

// PartTable is one radix partition's compact table: open addressing
// over distinct keys, each mapping to a dense group whose build rows are
// contiguous — ascending — in the partition's payload window.
type PartTable struct {
	slotKeys []int64
	slotGrp  []int32 // slot -> group, or -1
	start    []int32 // group -> first index within the payload window
	cnt      []int32 // group -> number of build rows
	shift    uint
}

// BuildPartTable builds one partition's table over its keys and their
// build-side row ids, packing the groups into payload — the partition's
// window, len(keys) long, of the build side's payload array. Keys must
// arrive in ascending original-row order (the radix scatter is stable);
// groups are numbered by first occurrence and a second ascending pass
// packs each group's rows contiguously — ascending within the group, so
// probes emitting the payload reversed reproduce the chained table's
// descending duplicate order.
func BuildPartTable(keys []int64, rows, payload []int32, c *Counters) PartTable {
	var pt PartTable
	capacity := nextPow2(len(keys)*2 + 1)
	pt.slotKeys = make([]int64, capacity)
	pt.slotGrp = make([]int32, capacity)
	pt.shift = uint(64 - log2(capacity))
	for i := range pt.slotGrp {
		pt.slotGrp[i] = -1
	}
	mask := uint64(capacity - 1)
	grp := make([]int32, len(keys))
	cnt := make([]int32, 0, len(keys)) // ≤ one group per row; partition is cache-sized
	for i, k := range keys {
		slot := hashKey(k, pt.shift) & mask
		for {
			g := pt.slotGrp[slot]
			if g < 0 {
				g = int32(len(cnt))
				pt.slotKeys[slot] = k
				pt.slotGrp[slot] = g
				cnt = append(cnt, 1)
				grp[i] = g
				break
			}
			if pt.slotKeys[slot] == k {
				cnt[g]++
				grp[i] = g
				break
			}
			slot = (slot + 1) & mask
		}
	}
	start := make([]int32, len(cnt))
	var pos int32
	for g, n := range cnt {
		start[g] = pos
		pos += n
	}
	pt.start, pt.cnt = start, cnt
	fill := make([]int32, len(cnt))
	for i := range keys {
		g := grp[i]
		payload[start[g]+fill[g]] = rows[i]
		fill[g]++
	}
	c.HashBuildTuples += int64(len(keys))
	c.CacheRandomAccesses += 2 * int64(len(keys))
	c.IntOps += int64(len(keys))
	c.ObservePartitionBytes(pt.sizeBytes() + int64(len(keys))*4)
	return pt
}

// sizeBytes is the table's footprint without its payload window.
func (pt *PartTable) sizeBytes() int64 {
	return int64(len(pt.slotKeys))*12 + int64(len(pt.start))*8
}

// lookup returns the group of key k, or -1.
func (pt *PartTable) lookup(k int64) int32 {
	mask := uint64(len(pt.slotKeys) - 1)
	slot := hashKey(k, pt.shift) & mask
	for {
		g := pt.slotGrp[slot]
		if g < 0 {
			return -1
		}
		if pt.slotKeys[slot] == k {
			return g
		}
		slot = (slot + 1) & mask
	}
}

// The probe kernels. pkeys are one partition's probe keys and prows
// their original probe-row ids; outputs indexed by probe row are shared
// across partitions, which write disjoint rows of them.

// CountMatches is the inner join's count pass: for every probe row with
// a match it records the group's size in counts[probe row] and the
// group's start in the build side's payload array in first[probe row];
// base is where the partition's payload window starts.
func (pt *PartTable) CountMatches(pkeys []int64, prows []int32, base int32, counts, first []int32, c *Counters) {
	for i, k := range pkeys {
		if g := pt.lookup(k); g >= 0 {
			pr := prows[i]
			counts[pr] = pt.cnt[g]
			first[pr] = base + pt.start[g]
		}
	}
	c.HashProbeTuples += int64(len(pkeys))
	c.CacheRandomAccesses += int64(len(pkeys))
}

// FlagMatches sets hit[probe row] for every probe row with a match: the
// semi and anti joins' only pass.
func (pt *PartTable) FlagMatches(pkeys []int64, prows []int32, hit []bool, c *Counters) {
	for i, k := range pkeys {
		if pt.lookup(k) >= 0 {
			hit[prows[i]] = true
		}
	}
	c.HashProbeTuples += int64(len(pkeys))
	c.CacheRandomAccesses += int64(len(pkeys))
}

// CountPerProbe writes every matching probe row's group size to
// out[probe row].
func (pt *PartTable) CountPerProbe(pkeys []int64, prows []int32, out []int64, c *Counters) {
	for i, k := range pkeys {
		if g := pt.lookup(k); g >= 0 {
			out[prows[i]] = int64(pt.cnt[g])
		}
	}
	c.HashProbeTuples += int64(len(pkeys))
	c.CacheRandomAccesses += int64(len(pkeys))
}

// MatchOffsets turns per-probe-row match counts into output windows:
// offs[p] is probe row p's first output slot (exclusive prefix sum) and
// total the output size. Sequential, but pure streaming arithmetic. A
// total beyond what int32 row ids can address is a *JoinOverflowError,
// returned before the caller sizes any output by it.
func MatchOffsets(counts []int32, ctr *Counters) (offs []int32, total int, err error) {
	offs = make([]int32, len(counts))
	var sum int64
	for i, n := range counts {
		offs[i] = int32(sum)
		sum += int64(n)
	}
	ctr.IntOps += int64(len(counts))
	ctr.SeqBytes += int64(len(counts)) * 8
	if err := checkJoinMatches(sum); err != nil {
		return nil, 0, err
	}
	return offs, int(sum), nil
}

// CollectFlags gathers the rows whose flag equals want, in ascending
// order.
func CollectFlags(flags []bool, want bool, ctr *Counters) []int32 {
	out := make([]int32, 0, len(flags))
	for i, f := range flags {
		if f == want {
			out = append(out, int32(i))
		}
	}
	ctr.SeqBytes += int64(len(flags))
	ctr.IntOps += int64(len(flags))
	return out
}

// FillMatches is the inner join's fill, for every driver of the count
// pass: it turns counts into output windows (MatchOffsets) and sweeps
// the probe rows in their original order, as row morsels, each matching
// row writing its group — counts[row] build rows from payload[first[row]],
// reversed — into its window. The sweep needs no table, no probe
// partition and no spilled segment, which is what lets a driver visit
// every partition once; its writes stream forward.
func FillMatches(payload, counts, first []int32, workers, morselRows int, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	offs, total, err := MatchOffsets(counts, ctr)
	if err != nil {
		return nil, nil, err
	}
	buildIdx = make([]int32, total)
	probeIdx = make([]int32, total)
	if err := runMorselsInfallible(workers, len(counts), morselRows, ctr, func(_, lo, hi int, c *Counters) {
		o := int(offs[lo])
		for pr := lo; pr < hi; pr++ {
			n, s := int(counts[pr]), int(first[pr])
			for d := 0; d < n; d++ {
				buildIdx[o+d] = payload[s+n-1-d]
				probeIdx[o+d] = int32(pr)
			}
			o += n
		}
		emitted := int64(o - int(offs[lo]))
		c.CacheRandomAccesses += emitted
		c.SeqBytes += emitted * 8
	}); err != nil {
		return nil, nil, err
	}
	return buildIdx, probeIdx, nil
}

// RadixJoinTable is the compact layout with every partition resident:
// probe sides are partitioned before probing, and partitions run as
// morsels.
type RadixJoinTable struct {
	rp      *RadixPartitions
	parts   []PartTable
	payload []int32 // build rows grouped by key; partition p owns [Off[p], Off[p+1])
	bloom   *Bloom
}

// BuildRadixJoinTable partitions keys so each partition's table fits
// targetPartBytes, then builds the per-partition tables. It is the
// convenience entry; the planner calls RadixPartitionKeys and
// BuildRadixTables separately so the partition phase gets its own span.
func BuildRadixJoinTable(keys []int64, targetPartBytes int64, cfg RadixJoinConfig, workers, morselRows int, ctr *Counters) (*RadixJoinTable, error) {
	bits := RadixBits(len(keys), RadixBuildBytesPerRow, targetPartBytes)
	rp, err := RadixPartitionKeys(keys, nil, bits, workers, morselRows, ctr)
	if err != nil {
		return nil, err
	}
	return BuildRadixTables(rp, cfg, workers, morselRows, ctr)
}

// BuildRadixTables builds one compact table per partition of the
// already-partitioned build side. Partitions are independent morsels;
// each table's inserts and payload writes stay within its own
// cache-sized range. The only possible error is the query's
// cancellation, and a partially built table must never be probed.
func BuildRadixTables(rp *RadixPartitions, cfg RadixJoinConfig, workers, morselRows int, ctr *Counters) (*RadixJoinTable, error) {
	rt := &RadixJoinTable{rp: rp, parts: make([]PartTable, rp.NumPartitions()), payload: make([]int32, len(rp.Rows))}
	if err := runMorselsInfallible(workers, len(rt.parts), 1, ctr, func(p, _, _ int, c *Counters) {
		lo, hi := rp.Off[p], rp.Off[p+1]
		rt.parts[p] = BuildPartTable(rp.Keys[lo:hi], rp.Rows[lo:hi], rt.payload[lo:hi], c)
	}); err != nil {
		return nil, err
	}
	if cfg.Bloom {
		rt.bloom = NewBloom(rp.Keys, ctr)
	}
	ctr.ObserveHashBytes(rt.SizeBytes())
	return rt, nil
}

// SizeBytes reports the table's total memory footprint.
//
//lint:allow costaccounting -- metadata sum over the fixed partition count, not data-path work
func (rt *RadixJoinTable) SizeBytes() int64 {
	n := int64(len(rt.rp.Rows))*(4+4) + int64(len(rt.rp.Keys))*8
	for i := range rt.parts {
		n += rt.parts[i].sizeBytes()
	}
	if rt.bloom != nil {
		n += rt.bloom.SizeBytes()
	}
	return n
}

// NumBuildRows reports the number of indexed build rows.
func (rt *RadixJoinTable) NumBuildRows() int { return len(rt.rp.Rows) }

// NumPartitions reports the build fan-out.
func (rt *RadixJoinTable) NumPartitions() int { return len(rt.parts) }

// partitionProbe routes the probe side through the Bloom pre-filter (if
// any) and radix-partitions it with the build's fan-out. Rows rejected
// by the filter have no match by construction, so dropping them before
// partitioning changes no output.
func (rt *RadixJoinTable) partitionProbe(probeKeys []int64, workers, morselRows int, ctr *Counters) (*RadixPartitions, error) {
	keys, rows := probeKeys, []int32(nil)
	if rt.bloom != nil {
		sel, err := rt.bloom.FilterKeys(probeKeys, workers, morselRows, ctr)
		if err != nil {
			return nil, err
		}
		if len(sel) < len(probeKeys) {
			keys, err = gatherKeysAt(probeKeys, sel, workers, morselRows, ctr)
			if err != nil {
				return nil, err
			}
			rows = sel
		}
	}
	return RadixPartitionKeys(keys, rows, rt.rp.Bits, workers, morselRows, ctr)
}

// gatherKeysAt compacts keys down to the selected rows (ascending sel,
// so the reads stream forward).
func gatherKeysAt(keys []int64, sel []int32, workers, morselRows int, ctr *Counters) ([]int64, error) {
	out := make([]int64, len(sel))
	if err := runMorselsInfallible(workers, len(sel), morselRows, ctr, func(m, lo, hi int, c *Counters) {
		for i := lo; i < hi; i++ {
			out[i] = keys[sel[i]]
		}
		c.SeqBytes += int64(hi-lo) * 12
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// eachPart runs one kernel pass: fn once per partition, as a morsel,
// with the partition's table and its probe keys and rows.
func (rt *RadixJoinTable) eachPart(pp *RadixPartitions, workers int, ctr *Counters, fn func(p int, pt *PartTable, pkeys []int64, prows []int32, c *Counters)) error {
	return runMorselsInfallible(workers, len(rt.parts), 1, ctr, func(p, _, _ int, c *Counters) {
		lo, hi := pp.Off[p], pp.Off[p+1]
		fn(p, &rt.parts[p], pp.Keys[lo:hi], pp.Rows[lo:hi], c)
	})
}

// InnerJoin implements JoinProber: a count pass over the partitions,
// then FillMatches over the probe rows.
func (rt *RadixJoinTable) InnerJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	pp, err := rt.partitionProbe(probeKeys, workers, morselRows, ctr)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int32, len(probeKeys))
	first := make([]int32, len(probeKeys))
	if err := rt.eachPart(pp, workers, ctr, func(p int, pt *PartTable, pkeys []int64, prows []int32, c *Counters) {
		pt.CountMatches(pkeys, prows, rt.rp.Off[p], counts, first, c)
	}); err != nil {
		return nil, nil, err
	}
	return FillMatches(rt.payload, counts, first, workers, morselRows, ctr)
}

// SemiJoin implements JoinProber.
func (rt *RadixJoinTable) SemiJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int32, error) {
	return rt.selJoin(probeKeys, true, workers, morselRows, ctr)
}

// AntiJoin implements JoinProber. Bloom-rejected rows are correct anti
// matches: the filter has no false negatives.
func (rt *RadixJoinTable) AntiJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int32, error) {
	return rt.selJoin(probeKeys, false, workers, morselRows, ctr)
}

// selJoin flags the probe rows that match and collects those whose flag
// equals want.
func (rt *RadixJoinTable) selJoin(probeKeys []int64, want bool, workers, morselRows int, ctr *Counters) ([]int32, error) {
	pp, err := rt.partitionProbe(probeKeys, workers, morselRows, ctr)
	if err != nil {
		return nil, err
	}
	hit := make([]bool, len(probeKeys))
	if err := rt.eachPart(pp, workers, ctr, func(_ int, pt *PartTable, pkeys []int64, prows []int32, c *Counters) {
		pt.FlagMatches(pkeys, prows, hit, c)
	}); err != nil {
		return nil, err
	}
	return CollectFlags(hit, want, ctr), nil
}

// CountPerProbe implements JoinProber.
func (rt *RadixJoinTable) CountPerProbe(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int64, error) {
	pp, err := rt.partitionProbe(probeKeys, workers, morselRows, ctr)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(probeKeys))
	if err := rt.eachPart(pp, workers, ctr, func(_ int, pt *PartTable, pkeys []int64, prows []int32, c *Counters) {
		pt.CountPerProbe(pkeys, prows, out, c)
	}); err != nil {
		return nil, err
	}
	ctr.SeqBytes += int64(len(probeKeys)) * 8
	return out, nil
}
