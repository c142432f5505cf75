package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"wimpi/internal/colstore"
)

// SortKey orders a sort by one column.
type SortKey struct {
	// Column names the sort column.
	Column string
	// Desc sorts descending when set.
	Desc bool
}

type rowCmp func(a, b int32) int

// sortComparators builds one comparator per sort key, charging any
// one-time comparator setup work (string materialization) to ctr.
//
// String keys never decode dictionary entries per comparison: when the
// column's dictionary assigns codes in value order, codes compare
// directly as integers; otherwise the column's values are materialized
// once (O(n) decodes) and comparisons index the materialized slice —
// instead of the O(n log n) Value calls a per-comparison decode costs.
func sortComparators(t *colstore.Table, keys []SortKey, ctr *Counters) ([]rowCmp, error) {
	cmps := make([]rowCmp, len(keys))
	for ki, k := range keys {
		c, err := t.ColByName(k.Column)
		if err != nil {
			return nil, err
		}
		desc := k.Desc
		var f rowCmp
		switch col := c.(type) {
		case *colstore.Int64s:
			f = func(a, b int32) int { return cmp.Compare(col.V[a], col.V[b]) }
		case *colstore.Float64s:
			f = func(a, b int32) int { return cmpOrderF(col.V[a], col.V[b]) }
		case *colstore.Dates:
			f = func(a, b int32) int { return cmp.Compare(col.V[a], col.V[b]) }
		case *colstore.Strings:
			if col.Dict.CodeOrdered() {
				codes := col.Codes
				f = func(a, b int32) int { return cmp.Compare(codes[a], codes[b]) }
			} else {
				vals := make([]string, col.Len())
				var bytes int64
				for i := range vals {
					vals[i] = col.Value(i)
					bytes += int64(len(vals[i]))
				}
				// One dictionary gather per row plus the write of the
				// materialized values (string headers included).
				ctr.RandomAccesses += int64(len(vals))
				bytes += int64(len(vals)) * 16
				ctr.BytesMaterialized += bytes
				ctr.SeqBytes += bytes
				f = func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) }
			}
		case *colstore.Bools:
			f = func(a, b int32) int { return cmp.Compare(b2i(col.V[a]), b2i(col.V[b])) }
		default:
			return nil, fmt.Errorf("exec: cannot sort by %s column", c.Type())
		}
		if desc {
			inner := f
			f = func(a, b int32) int { return -inner(a, b) }
		}
		cmps[ki] = f
	}
	return cmps, nil
}

// chargeSort records the comparison work of sorting n rows by keys:
// n * (floor(log2 n)+1) comparisons, each touching keys+1 values.
// bits.Len64(n) is exactly floor(log2 n)+1 for n >= 1 and 0 for n == 0,
// with no float round-trip (math.Ilogb(0) is undefined — a guard change
// would silently charge garbage).
func chargeSort(ctr *Counters, n int64, keys int) {
	if n > 1 {
		depth := int64(bits.Len64(uint64(n)))
		ctr.IntOps += n * depth * int64(keys+1)
		ctr.RandomAccesses += n * depth
	}
}

// ArgSort returns a permutation of row indexes ordering t by keys. The
// sort is stable, so ties preserve input order. String columns sort by
// value (not dictionary code). It runs on the calling goroutine and
// checks the query's cancellation once, before it starts.
func ArgSort(t *colstore.Table, keys []SortKey, ctr *Counters) ([]int32, error) {
	if err := ctr.sched.Err(); err != nil {
		return nil, err
	}
	cmps, err := sortComparators(t, keys, ctr)
	if err != nil {
		return nil, err
	}
	idx := SelAll(t.NumRows())
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		for _, f := range cmps {
			if c := f(a, b); c != 0 {
				return c < 0
			}
		}
		return false
	})
	chargeSort(ctr, int64(t.NumRows()), len(keys))
	return idx, nil
}

// SortTable materializes t ordered by keys: one stable sort (ArgSort),
// then a morsel-parallel gather. Output is identical at every worker
// count.
func SortTable(t *colstore.Table, keys []SortKey, workers, morselRows int, ctr *Counters) (*colstore.Table, error) {
	idx, err := ArgSort(t, keys, ctr)
	if err != nil {
		return nil, err
	}
	out, err := GatherTable(t, idx, workers, morselRows, ctr)
	if err != nil {
		return nil, err
	}
	ctr.TuplesMaterialized += int64(out.NumRows())
	ctr.BytesMaterialized += out.SizeBytes()
	ctr.RandomAccesses += int64(out.NumRows()) * int64(out.NumCols())
	return out, nil
}

// TopN materializes the first n rows of t ordered by keys. TPC-H result
// sets after aggregation are small, so a full sort followed by a slice
// is adequate.
func TopN(t *colstore.Table, keys []SortKey, n, workers, morselRows int, ctr *Counters) (*colstore.Table, error) {
	sorted, err := SortTable(t, keys, workers, morselRows, ctr)
	if err != nil {
		return nil, err
	}
	if n < sorted.NumRows() {
		return sorted.Slice(0, n), nil
	}
	return sorted, nil
}

// cmpOrderF is a total order over float64: NaN compares equal to NaN
// and greater than everything else (NaN sorts last ascending, where
// cmp.Compare sorts it first), and -0 == +0. IEEE comparisons alone are
// not a strict weak ordering — `<` and `>` are both false when either
// side is NaN, so a NaN-oblivious comparator reports NaN "equal" to
// every value, and a sort's output then depends on where the NaNs
// started. A total order pins one output for every input order.
func cmpOrderF(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0 // equal, including -0 == +0
	}
}
