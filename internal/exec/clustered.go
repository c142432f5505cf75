package exec

import (
	"math"

	"wimpi/internal/colstore"
)

// Order-aware kernels: a key column whose values never decrease keeps
// every group in one contiguous row range, so a grouped aggregation can
// cut its input at run boundaries instead of hash-partitioning it. The
// property is read off the rows that arrive, not off a catalog flag, so
// it survives filters, probe-side joins and first-occurrence group-by
// output.

// runCutter walks a key column's run boundaries, refusing descents and
// over-long runs and placing cuts about chunk rows apart.
type runCutter struct {
	chunk    int
	prev     int64
	runStart int
	cuts     []int32 // cuts[0] == 0
}

// boundary takes the first row of a run whose value differs from the
// previous run's and reports whether the column still qualifies.
func (rc *runCutter) boundary(v int64, row int) bool {
	if v < rc.prev || row-rc.runStart > rc.chunk {
		return false
	}
	if row-int(rc.cuts[len(rc.cuts)-1]) >= rc.chunk {
		rc.cuts = append(rc.cuts, int32(row))
	}
	rc.prev, rc.runStart = v, row
	return true
}

// feed walks vals, which are rows base, base+1, …, and returns how many
// it read and whether the column still qualifies.
func (rc *runCutter) feed(vals []int64, base int) (int, bool) {
	prev := rc.prev
	for i, v := range vals {
		if v == prev {
			continue
		}
		if !rc.boundary(v, base+i) {
			return i + 1, false
		}
		prev = v
	}
	return len(vals), true
}

// ClusteredCuts decides whether col can drive an order-aware aggregation
// and, if so, where to cut it. It returns nil unless col is non-decreasing
// over its whole length with no run of equal values longer than chunk
// rows; otherwise it returns ascending row numbers, from 0 to col.Len()
// inclusive, that all fall on run boundaries and lie at least chunk and
// fewer than 2*chunk rows apart (the last pair may be closer).
//
// The pass is sequential and stops at the first descent — a few rows into
// an unsorted column — and is charged for what it read: the bytes of the
// rows it decoded, one comparison per value.
func ClusteredCuts(col colstore.Column, chunk int, ctr *Counters) []int32 {
	n, chunk := col.Len(), max(chunk, 1)
	rc := runCutter{chunk: chunk, prev: math.MinInt64, cuts: make([]int32, 1, n/chunk+2)}
	ok := true
	switch c := col.(type) {
	case *colstore.Int64s:
		var read int
		read, ok = rc.feed(c.V, 0)
		ctr.SeqBytes += int64(read) * 8
		ctr.IntOps += int64(read)
	default:
		// Every other key type decodes block by block through
		// KeysInto, which charges the bytes; blocks start small so an
		// unsorted column costs a handful of rows.
		var buf [1024]int64
		for lo, step := 0, 16; ok && lo < n; lo, step = lo+step, min(2*step, len(buf)) {
			blk := buf[:min(step, n-lo)]
			if err := KeysInto(blk, col.Slice(lo, lo+len(blk)), nil, ctr); err != nil {
				return nil // not a key column; the caller's own extraction reports it
			}
			_, ok = rc.feed(blk, lo)
			ctr.IntOps += int64(len(blk))
		}
	}
	if !ok || n-rc.runStart > chunk {
		return nil
	}
	return append(rc.cuts, int32(n))
}

// GroupIDsSorted assigns dense group IDs to keys by comparing neighbours:
// a non-decreasing key vector needs no hash table, and its IDs in
// first-occurrence order are its run numbers. It writes them into out
// (len(out) == len(keys)) and returns the group count, or false at the
// first descent, having charged the comparisons it made.
func GroupIDsSorted(keys []int64, out []int32, ctr *Counters) (int, bool) {
	if len(keys) == 0 {
		return 0, true
	}
	gid, prev := int32(0), keys[0]
	for i, k := range keys {
		if k != prev {
			if k < prev {
				ctr.IntOps += int64(i + 1)
				return 0, false
			}
			gid++
			prev = k
		}
		out[i] = gid
	}
	ctr.IntOps += int64(len(keys))
	return int(gid) + 1, true
}
