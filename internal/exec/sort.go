package exec

import (
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
// one-time comparator setup work (string materialization) to ctr. The
// closures read shared immutable data, so they are safe to call
// concurrently.
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
			f = func(a, b int32) int { return cmpOrder(col.V[a], col.V[b]) }
		case *colstore.RLEInt64:
			vals, err := AsInt64(c, ctr)
			if err != nil {
				return nil, err
			}
			f = func(a, b int32) int { return cmpOrder(vals[a], vals[b]) }
		case *colstore.Float64s:
			f = func(a, b int32) int { return cmpOrderF(col.V[a], col.V[b]) }
		case *colstore.Dates:
			f = func(a, b int32) int { return cmpOrder(int64(col.V[a]), int64(col.V[b])) }
		case *colstore.Strings:
			if col.Dict.CodeOrdered() {
				codes := col.Codes
				f = func(a, b int32) int { return cmpOrder(int64(codes[a]), int64(codes[b])) }
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
				f = func(a, b int32) int { return cmpOrderS(vals[a], vals[b]) }
			}
		case *colstore.Bools:
			f = func(a, b int32) int { return cmpOrder(boolInt(col.V[a]), boolInt(col.V[b])) }
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

// lessRows orders two row indexes by the key comparators, breaking ties
// by row index — the unique order a stable sort of the identity
// permutation produces.
func lessRows(cmps []rowCmp, a, b int32) bool {
	for _, f := range cmps {
		if c := f(a, b); c != 0 {
			return c < 0
		}
	}
	return a < b
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
// value (not dictionary code).
func ArgSort(t *colstore.Table, keys []SortKey, ctr *Counters) ([]int32, error) {
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

// sortParallelMinRows is the smallest input sorted with per-morsel runs
// and a k-way merge rather than one stable sort.
const sortParallelMinRows = 1 << 14

// ArgSortParallel is ArgSort with up to workers goroutines: every morsel
// is sorted stably in parallel, then the sorted runs are k-way merged
// with ties broken by original row index. A stable sort's output is the
// unique (key, row index) ordering, so the result is bit-identical to
// ArgSort's for any worker count and morsel size.
func ArgSortParallel(t *colstore.Table, keys []SortKey, workers, morselRows int, ctr *Counters) ([]int32, error) {
	if workers <= 1 || t.NumRows() < sortParallelMinRows {
		return ArgSort(t, keys, ctr)
	}
	return argSortMerge(t, keys, workers, morselRows, ctr)
}

// argSortMerge is the run-sort-and-merge path without ArgSortParallel's
// size threshold, so tests can force it on small inputs.
func argSortMerge(t *colstore.Table, keys []SortKey, workers, morselRows int, ctr *Counters) ([]int32, error) {
	n := t.NumRows()
	cmps, err := sortComparators(t, keys, ctr)
	if err != nil {
		return nil, err
	}
	idx := SelAll(n)
	nm := NumMorsels(n, morselRows)
	if err := runMorselsInfallible(workers, n, morselRows, ctr, func(m, lo, hi int, c *Counters) {
		run := idx[lo:hi]
		sort.SliceStable(run, func(i, j int) bool {
			a, b := run[i], run[j]
			for _, f := range cmps {
				if cc := f(a, b); cc != 0 {
					return cc < 0
				}
			}
			return false
		})
		chargeSort(c, int64(hi-lo), len(keys))
	}); err != nil {
		// Cancelled mid-run: idx holds partially sorted runs that must
		// never reach the merge.
		return nil, err
	}

	// K-way merge of the sorted runs via a binary min-heap of run heads.
	type run struct{ pos, end int }
	runs := make([]run, 0, nm)
	for m := 0; m < nm; m++ {
		lo := m * morselRowsOrDefault(morselRows)
		hi := lo + morselRowsOrDefault(morselRows)
		if hi > n {
			hi = n
		}
		if lo < hi {
			runs = append(runs, run{pos: lo, end: hi})
		}
	}
	less := func(a, b run) bool { return lessRows(cmps, idx[a.pos], idx[b.pos]) }
	heap := runs
	// Build the heap.
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i, less)
	}
	out := make([]int32, 0, n)
	for len(heap) > 0 {
		top := &heap[0]
		out = append(out, idx[top.pos])
		top.pos++
		if top.pos == top.end {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		if len(heap) > 0 {
			siftDown(heap, 0, less)
		}
	}
	ctr.IntOps += int64(n) * int64(log2(len(runs))+1) * int64(len(keys)+1)
	ctr.MergeBytes += int64(n) * 8 // read + write one int32 index per row
	return out, nil
}

func morselRowsOrDefault(morselRows int) int {
	if morselRows <= 0 {
		return DefaultMorselRows
	}
	return morselRows
}

func siftDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && less(h[r], h[l]) {
			m = r
		}
		if !less(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// SortTable materializes t ordered by keys.
func SortTable(t *colstore.Table, keys []SortKey, ctr *Counters) (*colstore.Table, error) {
	idx, err := ArgSort(t, keys, ctr)
	if err != nil {
		return nil, err
	}
	out := t.Gather(idx)
	ctr.TuplesMaterialized += int64(out.NumRows())
	ctr.BytesMaterialized += out.SizeBytes()
	ctr.RandomAccesses += int64(out.NumRows()) * int64(out.NumCols())
	return out, nil
}

// SortTableParallel materializes t ordered by keys using up to workers
// goroutines for both the sort and the gather. Output is identical to
// SortTable's.
func SortTableParallel(t *colstore.Table, keys []SortKey, workers, morselRows int, ctr *Counters) (*colstore.Table, error) {
	idx, err := ArgSortParallel(t, keys, workers, morselRows, ctr)
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

// TopNParallel materializes the first n rows of t ordered by keys.
// TPC-H result sets after aggregation are small, so a full (parallel)
// sort followed by a slice is adequate.
func TopNParallel(t *colstore.Table, keys []SortKey, n, workers, morselRows int, ctr *Counters) (*colstore.Table, error) {
	sorted, err := SortTableParallel(t, keys, workers, morselRows, ctr)
	if err != nil {
		return nil, err
	}
	if n < sorted.NumRows() {
		return sorted.Slice(0, n), nil
	}
	return sorted, nil
}

func cmpOrder(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpOrderF is a total order over float64: NaN compares equal to NaN
// and greater than everything else (NaN sorts last ascending), and
// -0 == +0. IEEE comparisons alone are not a strict weak ordering —
// `<` and `>` are both false when either side is NaN, so a
// NaN-oblivious comparator reports NaN "equal" to every value, and the
// run-sort + k-way merge's output then depends on which morsel a NaN
// landed in. A total order makes parallel sorts byte-identical at every
// worker count.
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

func cmpOrderS(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
