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
// methods, and driven by the plan layer's spill joiner, with partitions
// as morsels: over the resident prefix of partitions and over those read
// back from the spill area alike. Every partition's table packs its
// groups into its own window of one payload array shared by the whole
// build side, so a group is addressed by a global payload index and
// outlives its table.
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
// arrays); the spill joiner sizes its fan-out with it.
const RadixBuildBytesPerRow = 32

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

// FillMatches is the inner join's fill after the count pass: it turns
// counts into output windows (MatchOffsets) and sweeps the probe rows in
// their original order, as row morsels, each matching row writing its
// group — counts[row] build rows from payload[first[row]], reversed —
// into its window. The sweep needs no table, no probe partition and no
// spilled segment, which is what lets the driver visit every partition
// once; its writes stream forward.
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
