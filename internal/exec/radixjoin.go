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
// methods, and driven two ways: RadixJoinTable runs them over resident
// partitions as morsels; the plan layer's spill joiner runs them over
// partitions read back from the spill area, one at a time.
//
// Probe results are byte-identical to JoinTable's: the chained table
// visits a key's duplicates in descending build-row order (inserts
// prepend), and the payload here stores them ascending and emits them
// reversed. Inner-join output positions come from a count pass plus a
// prefix sum over probe rows (MatchOffsets), so per-partition fills land
// every match exactly where the sequential probe would have appended it.

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
// contiguous — ascending — in the payload.
type PartTable struct {
	slotKeys []int64
	slotGrp  []int32 // slot -> group, or -1
	start    []int32 // group -> first payload index
	cnt      []int32 // group -> number of build rows
	payload  []int32 // build rows grouped by key
	shift    uint
}

// BuildPartTable builds one partition's table over its keys and their
// build-side row ids.
func BuildPartTable(keys []int64, rows []int32, c *Counters) *PartTable {
	pt := new(PartTable)
	pt.build(keys, rows, make([]int32, len(keys)), c)
	return pt
}

// build fills pt, packing the groups into the caller's payload window.
// Keys must arrive in ascending original-row order (the radix scatter is
// stable); groups are numbered by first occurrence and a second
// ascending pass packs each group's rows contiguously — ascending within
// the group, so probes emitting the payload reversed reproduce the
// chained table's descending duplicate order.
func (pt *PartTable) build(keys []int64, rows, payload []int32, c *Counters) {
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
	pt.start, pt.cnt, pt.payload = start, cnt, payload
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

// CountMatches is the inner join's count pass: it records every probe
// key's group in grp (parallel to pkeys) and the group's size in
// counts[probe row].
func (pt *PartTable) CountMatches(pkeys []int64, prows, grp, counts []int32, c *Counters) {
	for i, k := range pkeys {
		g := pt.lookup(k)
		grp[i] = g
		if g >= 0 {
			counts[prows[i]] = pt.cnt[g]
		}
	}
	c.HashProbeTuples += int64(len(pkeys))
	c.CacheRandomAccesses += int64(len(pkeys))
}

// Groups recomputes the grp vector of CountMatches, for a driver that
// could not keep it between the passes.
func (pt *PartTable) Groups(pkeys []int64, grp []int32, c *Counters) {
	for i, k := range pkeys {
		grp[i] = pt.lookup(k)
	}
	c.CacheRandomAccesses += int64(len(pkeys))
}

// FillMatches is the inner join's fill pass: every matching probe row
// writes its group's build rows, reversed, into its output window
// starting at offs[probe row].
func (pt *PartTable) FillMatches(prows, grp, offs, buildIdx, probeIdx []int32, c *Counters) {
	var emitted int64
	for i, g := range grp {
		if g < 0 {
			continue
		}
		pr := prows[i]
		o := int(offs[pr])
		n := int(pt.cnt[g])
		s := int(pt.start[g])
		for d := 0; d < n; d++ {
			buildIdx[o+d] = pt.payload[s+n-1-d]
			probeIdx[o+d] = pr
		}
		emitted += int64(n)
	}
	c.CacheRandomAccesses += emitted
	c.SeqBytes += emitted * 8
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

// RadixJoinTable is the compact layout with every partition resident:
// probe sides are partitioned before probing, and partitions run as
// morsels.
type RadixJoinTable struct {
	rp    *RadixPartitions
	parts []PartTable
	bloom *Bloom
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
	rt := &RadixJoinTable{rp: rp, parts: make([]PartTable, rp.NumPartitions())}
	payload := make([]int32, len(rp.Rows))
	if err := runMorselsInfallible(workers, len(rt.parts), 1, ctr, func(p, _, _ int, c *Counters) {
		lo, hi := rp.Off[p], rp.Off[p+1]
		rt.parts[p].build(rp.Keys[lo:hi], rp.Rows[lo:hi], payload[lo:hi], c)
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
// with the bounds [lo, hi) of that partition's probe rows in pp.
func (rt *RadixJoinTable) eachPart(pp *RadixPartitions, workers int, ctr *Counters, fn func(pt *PartTable, lo, hi int32, c *Counters)) error {
	return runMorselsInfallible(workers, len(rt.parts), 1, ctr, func(p, _, _ int, c *Counters) {
		fn(&rt.parts[p], pp.Off[p], pp.Off[p+1], c)
	})
}

// InnerJoin implements JoinProber: a count pass sizes the output
// exactly, MatchOffsets assigns every probe row its window, and a fill
// pass writes the windows.
func (rt *RadixJoinTable) InnerJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	pp, err := rt.partitionProbe(probeKeys, workers, morselRows, ctr)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int32, len(probeKeys))
	grp := make([]int32, len(pp.Rows))
	if err := rt.eachPart(pp, workers, ctr, func(pt *PartTable, lo, hi int32, c *Counters) {
		pt.CountMatches(pp.Keys[lo:hi], pp.Rows[lo:hi], grp[lo:hi], counts, c)
	}); err != nil {
		return nil, nil, err
	}
	offs, total, err := MatchOffsets(counts, ctr)
	if err != nil {
		return nil, nil, err
	}
	buildIdx = make([]int32, total)
	probeIdx = make([]int32, total)
	if err := rt.eachPart(pp, workers, ctr, func(pt *PartTable, lo, hi int32, c *Counters) {
		pt.FillMatches(pp.Rows[lo:hi], grp[lo:hi], offs, buildIdx, probeIdx, c)
	}); err != nil {
		return nil, nil, err
	}
	return buildIdx, probeIdx, nil
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
	if err := rt.eachPart(pp, workers, ctr, func(pt *PartTable, lo, hi int32, c *Counters) {
		pt.FlagMatches(pp.Keys[lo:hi], pp.Rows[lo:hi], hit, c)
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
	if err := rt.eachPart(pp, workers, ctr, func(pt *PartTable, lo, hi int32, c *Counters) {
		pt.CountPerProbe(pp.Keys[lo:hi], pp.Rows[lo:hi], out, c)
	}); err != nil {
		return nil, err
	}
	ctr.SeqBytes += int64(len(probeKeys)) * 8
	return out, nil
}
