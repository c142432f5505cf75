package exec

// The spill joiner's per-partition join kernels. The plan layer's spill
// joiner radix-partitions an equi-join's build side and gives every
// partition a chained JoinTable of one part (BuildPartitionJoinTable):
// its slots hold build-row ids, and its duplicate chains go into one
// next array indexed by build row and shared by the whole build side, so
// a partition's chains outlive its table. Probe sides are partitioned
// with the same fan-out; the kernels below probe one partition and write
// their results at each probe key's original row.
//
// Probe results are byte-identical to those of a JoinTable built over
// the whole build side: rows enter a partition in ascending order (the
// radix scatter is stable) and prepend to their chain, so a key's
// duplicates come out in descending row order. An inner join visits
// every partition once: the count pass (CountChains) records each probe
// row's chain length and head, a prefix sum over probe rows
// (MatchOffsets) sizes the output, and FillMatches sweeps the probe rows
// in their original order, walking next, so every match lands exactly
// where the sequential probe would have appended it.

// RadixBuildBytesPerRow estimates the per-build-row footprint of a
// partition's table — two 12-byte slots and a 4-byte next entry, with
// slack for the slot count's rounding to a power of two; the spill
// joiner sizes its fan-out with it.
const RadixBuildBytesPerRow = 32

// BuildPartitionJoinTable builds one partition's table over its keys and
// their ascending build-row ids, prepending every row to its key's chain
// in next — the build side's next array, indexed by build row, of which
// the partition writes only its own rows. It is charged like any chained
// build; the table's SizeBytes counts all of next.
func BuildPartitionJoinTable(keys []int64, rows, next []int32, c *Counters) *JoinTable {
	jp, _ := buildJoinPart(keys, rows, next)
	c.HashBuildTuples += int64(len(keys))
	c.RandomAccesses += int64(len(keys))
	c.ObserveHashBytes(JoinTableBytes(len(keys)))
	return &JoinTable{parts: []joinPart{jp}, next: next}
}

// The probe kernels. pkeys are one partition's probe keys and prows
// their original probe-row ids; outputs indexed by probe row are shared
// across partitions, which write disjoint rows of them. Like the chained
// probes, they charge a probe tuple and a RandomAccess per key and a
// RandomAccess per chain step.

// CountChains is the inner join's count pass: it records the length of
// every probe key's chain in counts[probe row] and the chain's head in
// heads[probe row].
func (jt *JoinTable) CountChains(pkeys []int64, prows []int32, counts, heads []int32, c *Counters) {
	var steps int64
	for i, k := range pkeys {
		h, n := jt.lookup(k), int32(0)
		for b := h; b >= 0; b = jt.next[b] {
			n++
		}
		counts[prows[i]], heads[prows[i]] = n, h
		steps += int64(n)
	}
	c.HashProbeTuples += int64(len(pkeys))
	c.RandomAccesses += int64(len(pkeys)) + steps
}

// FlagMatches sets hit[probe row] for every probe row with a match: the
// semi and anti joins' only pass.
func (jt *JoinTable) FlagMatches(pkeys []int64, prows []int32, hit []bool, c *Counters) {
	for i, k := range pkeys {
		hit[prows[i]] = jt.lookup(k) >= 0
	}
	c.HashProbeTuples += int64(len(pkeys))
	c.RandomAccesses += int64(len(pkeys))
}

// CountMatchesTo writes every probe row's match count to out[probe row].
func (jt *JoinTable) CountMatchesTo(pkeys []int64, prows []int32, out []int64, c *Counters) {
	var matches int64
	for i, k := range pkeys {
		n := jt.CountMatches(k)
		out[prows[i]] = n
		matches += n
	}
	c.HashProbeTuples += int64(len(pkeys))
	c.RandomAccesses += int64(len(pkeys)) + matches
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
// their original order, as row morsels, each matching row walking its
// chain — counts[row] build rows from heads[row] on, along next — into
// its window. The sweep needs no table, no probe partition and no
// spilled segment, which is what lets the driver visit every partition
// once; its writes stream forward, and each chain step is a
// RandomAccess.
func FillMatches(next, counts, heads []int32, workers, morselRows int, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	offs, total, err := MatchOffsets(counts, ctr)
	if err != nil {
		return nil, nil, err
	}
	buildIdx = make([]int32, total)
	probeIdx = make([]int32, total)
	if err := runMorselsInfallible(workers, len(counts), morselRows, ctr, func(_, lo, hi int, c *Counters) {
		o := int(offs[lo])
		for pr := lo; pr < hi; pr++ {
			b := heads[pr]
			for end := o + int(counts[pr]); o < end; o++ {
				buildIdx[o] = b
				probeIdx[o] = int32(pr)
				b = next[b]
			}
		}
		emitted := int64(o - int(offs[lo]))
		c.RandomAccesses += emitted
		c.SeqBytes += emitted * 8
	}); err != nil {
		return nil, nil, err
	}
	return buildIdx, probeIdx, nil
}
