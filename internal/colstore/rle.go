package colstore

import "sort"

// RLEInt64 is a run-length-encoded int64 column. It implements Column,
// so it can sit inside a Table; dedicated kernels in package exec
// operate on it run-at-a-time, and Decode materializes a dense column
// for operators without an RLE path.
//
// It exists for the paper's Section III-C.2 discussion: on bandwidth-
// starved nodes like the Pi 3B+, spending CPU on heavier compression to
// save memory traffic can be a win. Sorted key columns such as
// l_orderkey (runs of 1-7 identical values per order) compress roughly
// 3-4x.
type RLEInt64 struct {
	// Vals holds one value per run.
	Vals []int64
	// Starts holds each run's starting row; Starts[i+1]-Starts[i] is
	// run i's length. A sentinel final entry holds the row count.
	Starts []int32
}

// CompressInt64 run-length encodes a dense column.
func CompressInt64(c *Int64s) *RLEInt64 {
	r := &RLEInt64{}
	for i, v := range c.V {
		if len(r.Vals) == 0 || r.Vals[len(r.Vals)-1] != v {
			r.Vals = append(r.Vals, v)
			r.Starts = append(r.Starts, int32(i))
		}
	}
	r.Starts = append(r.Starts, int32(len(c.V)))
	return r
}

// Type implements Column. RLE is an encoding of an int64 column.
func (r *RLEInt64) Type() Type { return Int64 }

// Len implements Column.
func (r *RLEInt64) Len() int {
	if len(r.Starts) == 0 {
		return 0
	}
	return int(r.Starts[len(r.Starts)-1])
}

// NumRuns reports the number of runs.
func (r *RLEInt64) NumRuns() int { return len(r.Vals) }

// SizeBytes implements Column: 8 bytes per run value plus 4 per start.
func (r *RLEInt64) SizeBytes() int64 {
	return int64(len(r.Vals))*8 + int64(len(r.Starts))*4
}

// Value returns the value at row i via binary search over run starts.
func (r *RLEInt64) Value(i int32) int64 {
	lo, hi := 0, len(r.Vals)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.Starts[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return r.Vals[lo]
}

// Decode materializes the dense column.
func (r *RLEInt64) Decode() *Int64s {
	out := make([]int64, r.Len())
	for i, v := range r.Vals {
		for j := r.Starts[i]; j < r.Starts[i+1]; j++ {
			out[j] = v
		}
	}
	return &Int64s{V: out}
}

// Gather implements Column. The result is a dense column.
func (r *RLEInt64) Gather(sel []int32) Column {
	out := make([]int64, len(sel))
	for i, s := range sel {
		out[i] = r.Value(s)
	}
	return &Int64s{V: out}
}

// Slice implements Column. Slicing re-encodes the run boundaries; the
// result shares no storage with the receiver's starts.
func (r *RLEInt64) Slice(lo, hi int) Column {
	out := &RLEInt64{}
	if lo >= hi {
		out.Starts = []int32{0}
		return out
	}
	// The first overlapping run is the last one starting at or before lo;
	// a morsel-sized slice of a long column touches only its own runs.
	first := sort.Search(len(r.Vals), func(i int) bool { return int(r.Starts[i+1]) > lo })
	for i := first; i < len(r.Vals) && int(r.Starts[i]) < hi; i++ {
		v := r.Vals[i]
		s, e := int(r.Starts[i]), int(r.Starts[i+1])
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		out.Vals = append(out.Vals, v)
		out.Starts = append(out.Starts, int32(s-lo))
	}
	out.Starts = append(out.Starts, int32(hi-lo))
	return out
}
