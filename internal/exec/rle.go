package exec

import "wimpi/internal/colstore"

// RLE kernels: run-at-a-time evaluation over compressed int columns.
// They read SizeBytes (the compressed footprint) instead of 8 bytes per
// row — the bandwidth-for-CPU trade of the paper's §III-C.2.

// SelRLEInt64 is SelInt64 over a run-length-encoded column: the
// comparison is evaluated once per run, and qualifying runs expand into
// row indexes.
func SelRLEInt64(c *colstore.RLEInt64, op CmpOp, val int64, in []int32, ctr *Counters) []int32 {
	if in == nil {
		out := make([]int32, 0, c.Len()/2)
		for i, v := range c.Vals {
			if cmpI64(op, v, val) {
				for j := c.Starts[i]; j < c.Starts[i+1]; j++ {
					out = append(out, j)
				}
			}
		}
		ctr.TuplesScanned += int64(c.Len())
		ctr.IntOps += int64(c.NumRuns())
		ctr.SeqBytes += c.SizeBytes()
		return out
	}
	// Selective path: per-row lookup through the run index.
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if cmpI64(op, c.Value(i), val) {
			out = append(out, i)
		}
	}
	ctr.TuplesScanned += int64(len(in))
	ctr.IntOps += int64(len(in)) * 4 // binary search per row
	ctr.RandomAccesses += int64(len(in))
	return out
}
