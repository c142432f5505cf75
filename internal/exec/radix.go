package exec

// Multi-pass radix partitioner. Keys are scattered into 2^bits
// partitions by the high bits of an independent hash, at most
// RadixBitsPerPass bits per pass, so one pass never keeps more than 64
// write streams live — small enough that every stream's tail stays in
// the TLB and store buffers even on a wimpy core. The spill joiner
// partitions a join over its memory budget this way: a partition is the
// unit that can leave memory, and a few sequential passes are the price
// of cutting the join into budget-sized pieces.
//
// Determinism: partition assignment is a pure function of the key, every
// scatter pass is stable (parallel first passes write per-(morsel,
// bucket) windows in morsel order; refinement passes run one segment per
// morsel), and segment boundaries depend only on the data — so the
// output permutation is byte-identical at any worker count.

const (
	// RadixBitsPerPass bounds one scatter pass's fan-out to 64 write
	// streams.
	RadixBitsPerPass = 6
	// MaxRadixBits caps the total fan-out at 4096 partitions (two
	// passes); beyond that, pass overhead beats locality gains.
	MaxRadixBits = 12
	// radixElemBytes is the footprint of one scattered element: an
	// 8-byte key plus a 4-byte row index.
	radixElemBytes = 8 + 4
)

// mix64 is the splitmix64 finalizer — full-avalanche, and independent of
// hashKey's Fibonacci finalizer so partitioning does not drain entropy
// from the open addressing inside each partition.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// RadixOf returns key k's partition under a bits-bit fan-out. It is the
// single definition of partition assignment: every pass of the
// partitioner refines toward it, and probes route with it — the spill
// joiner's probe sides and every lookup in a partitioned JoinTable.
func RadixOf(k int64, bits uint) int {
	if bits == 0 {
		return 0
	}
	return int(mix64(uint64(k)) >> (64 - bits))
}

// RadixPartitions is a key vector scattered into 2^Bits partitions.
type RadixPartitions struct {
	// Keys holds the permuted keys; partition p occupies
	// Keys[Off[p]:Off[p+1]].
	Keys []int64
	// Rows holds each permuted key's original row index, parallel to
	// Keys. Within a partition, rows are ascending (the scatter is
	// stable).
	Rows []int32
	// Off holds the partition boundaries; len(Off) == 2^Bits + 1.
	Off []int32
	// Bits is the fan-out in bits.
	Bits uint
}

// NumPartitions reports the partition count.
func (rp *RadixPartitions) NumPartitions() int { return len(rp.Off) - 1 }

// RadixPartitionKeys scatters keys into 2^bits partitions, recording
// each key's original row index. The input slice is never modified. The first pass runs
// morsel-parallel over the input; later passes refine one segment per
// morsel. ctr is charged one streaming read per histogram pass and a
// read+write stream per scatter pass (PartitionBytes). The only
// possible error is the query's cancellation; a partially scattered
// permutation must never be consumed.
func RadixPartitionKeys(keys []int64, bits uint, workers, morselRows int, ctr *Counters) (*RadixPartitions, error) {
	n := len(keys)
	if bits == 0 {
		rows := make([]int32, n)
		if err := runMorselsInfallible(workers, n, morselRows, ctr, func(m, lo, hi int, c *Counters) {
			for i := lo; i < hi; i++ {
				rows[i] = int32(i)
			}
			c.IntOps += int64(hi - lo)
		}); err != nil {
			return nil, err
		}
		return &RadixPartitions{Keys: keys, Rows: rows, Off: []int32{0, int32(n)}, Bits: 0}, nil
	}

	rp := &RadixPartitions{Bits: bits}
	srcK, srcR := keys, []int32(nil) // the first pass reads no row ids: row i is key i
	dstK := make([]int64, n)
	dstR := make([]int32, n)
	off := []int32{0, int32(n)}
	var done uint
	for done < bits {
		b := bits - done
		if b > RadixBitsPerPass {
			b = RadixBitsPerPass
		}
		fan := 1 << b
		newOff := make([]int32, (len(off)-1)*fan+1)
		if done == 0 {
			if err := radixFirstPass(srcK, dstK, dstR, newOff, b, workers, morselRows, ctr); err != nil {
				return nil, err
			}
		} else {
			if err := radixRefinePass(srcK, srcR, dstK, dstR, off, newOff, done, b, workers, ctr); err != nil {
				return nil, err
			}
		}
		newOff[len(newOff)-1] = int32(n)
		off = newOff
		done += b
		if done < bits {
			if srcR == nil {
				// The first pass read the caller's keys: never scatter
				// back into them.
				srcK = make([]int64, n)
				srcR = make([]int32, n)
			}
			srcK, dstK = dstK, srcK
			srcR, dstR = dstR, srcR
		}
	}
	rp.Keys, rp.Rows, rp.Off = dstK, dstR, off
	return rp, nil
}

// radixFirstPass scatters the whole input by its top b partition bits,
// morsel-parallel: a histogram pass gives every (morsel, bucket) pair a
// disjoint write window, and filling windows in morsel order keeps the
// scatter stable. Each key's row index is its input position.
func radixFirstPass(srcK []int64, dstK []int64, dstR, newOff []int32, b uint, workers, morselRows int, ctr *Counters) error {
	n := len(srcK)
	fan := 1 << b
	shift := 64 - b
	nm := NumMorsels(n, morselRows)
	counts := make([][]int32, nm)
	if err := runMorselsInfallible(workers, n, morselRows, ctr, func(m, lo, hi int, c *Counters) {
		cnt := make([]int32, fan)
		for _, k := range srcK[lo:hi] {
			cnt[mix64(uint64(k))>>shift]++
		}
		counts[m] = cnt
		c.IntOps += int64(hi - lo)
		c.PartitionBytes += int64(hi-lo) * radixElemBytes
	}); err != nil {
		return err
	}
	// Bucket bases, then per-(morsel, bucket) windows within each bucket.
	within := make([][]int32, nm)
	perBucket := make([]int32, fan)
	for m := 0; m < nm; m++ {
		w := make([]int32, fan)
		copy(w, perBucket)
		within[m] = w
		for t := 0; t < fan; t++ {
			perBucket[t] += counts[m][t]
		}
	}
	var base int32
	for t := 0; t < fan; t++ {
		newOff[t] = base
		base += perBucket[t]
	}
	// One flat cursor array, a disjoint fan-wide window per morsel: the
	// scatter callback itself stays allocation-free.
	posScratch := make([]int32, nm*fan)
	return runMorselsInfallible(workers, n, morselRows, ctr, func(m, lo, hi int, c *Counters) {
		pos := posScratch[m*fan : (m+1)*fan]
		for t := 0; t < fan; t++ {
			pos[t] = newOff[t] + within[m][t]
		}
		for i := lo; i < hi; i++ {
			t := mix64(uint64(srcK[i])) >> shift
			dstK[pos[t]] = srcK[i]
			dstR[pos[t]] = int32(i)
			pos[t]++
		}
		c.IntOps += int64(hi - lo)
		c.PartitionBytes += int64(hi-lo) * radixElemBytes * 2
	})
}

// radixRefinePass splits every existing segment by its next b partition
// bits. Segments are independent, so each runs as one morsel; the
// sequential per-segment scatter is stable.
func radixRefinePass(srcK []int64, srcR []int32, dstK []int64, dstR, off, newOff []int32, done, b uint, workers int, ctr *Counters) error {
	fan := 1 << b
	shift := 64 - done - b
	mask := uint64(fan - 1)
	nseg := len(off) - 1
	// Histogram and cursor scratch for all segments up front; each
	// segment owns two disjoint fan-wide windows of the flat array.
	scratch := make([]int32, 2*nseg*fan)
	return runMorselsInfallible(workers, nseg, 1, ctr, func(s, _, _ int, c *Counters) {
		lo, hi := int(off[s]), int(off[s+1])
		cnt := scratch[2*s*fan : (2*s+1)*fan]
		for _, k := range srcK[lo:hi] {
			cnt[(mix64(uint64(k))>>shift)&mask]++
		}
		base := int32(lo)
		for t := 0; t < fan; t++ {
			newOff[s*fan+t] = base
			base += cnt[t]
		}
		pos := scratch[(2*s+1)*fan : (2*s+2)*fan]
		copy(pos, newOff[s*fan:s*fan+fan])
		for i := lo; i < hi; i++ {
			t := (mix64(uint64(srcK[i])) >> shift) & mask
			dstK[pos[t]] = srcK[i]
			dstR[pos[t]] = srcR[i]
			pos[t]++
		}
		c.IntOps += int64(hi-lo) * 2
		c.PartitionBytes += int64(hi-lo) * radixElemBytes * 3
	})
}
