package exec

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"wimpi/internal/colstore"
)

// nanTable builds a table whose float column is salted with NaNs (two
// different bit patterns), ±0, and ±Inf, plus an id column so any
// permutation difference is visible.
func nanTable(t *testing.T, n int, seed int64) *colstore.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, n)
	vals := make([]float64, n)
	quietNaN := math.NaN()
	payloadNaN := math.Float64frombits(0x7ff8000000000001)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		switch rng.Intn(10) {
		case 0:
			vals[i] = quietNaN
		case 1:
			vals[i] = payloadNaN
		case 2:
			vals[i] = math.Copysign(0, -1)
		case 3:
			vals[i] = 0
		case 4:
			vals[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			vals[i] = float64(rng.Intn(50)) // plenty of ties
		}
	}
	tab, err := colstore.NewTable("t",
		colstore.Schema{{Name: "id", Type: colstore.Int64}, {Name: "v", Type: colstore.Float64}},
		[]colstore.Column{&colstore.Int64s{V: ids}, &colstore.Float64s{V: vals}})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSortNaNDeterministicAcrossWorkers is the regression test for the
// non-total float order: a NaN-bearing column must sort last and
// byte-identically at 1, 2, 4, and 8 workers, whose gathers split the
// sorted rows into different morsel sets. Before cmpOrderF ordered NaN,
// a NaN compared "equal" to everything, so where NaNs landed depended on
// the order the sort met them in.
func TestSortNaNDeterministicAcrossWorkers(t *testing.T) {
	const n = 20000 // many 512-row morsels, so workers>1 gather in parallel
	tab := nanTable(t, n, 7)
	keys := []SortKey{{Column: "v"}}

	var base *colstore.Table
	for _, w := range []int{1, 2, 4, 8} {
		var ctr Counters
		got, err := SortTable(tab, keys, w, 512, &ctr)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if base == nil {
			base = got
			continue
		}
		if ok, why := colstore.TablesIdentical(base, got); !ok {
			t.Fatalf("workers=%d: output differs from 1-worker sort: %s", w, why)
		}
	}

	// NaNs sort last ascending, after +Inf.
	v := base.Cols[base.Schema.Index("v")].(*colstore.Float64s).V
	seenNaN := false
	for i, x := range v {
		if math.IsNaN(x) {
			seenNaN = true
		} else if seenNaN {
			t.Fatalf("non-NaN %v at row %d after a NaN: NaN must sort last", x, i)
		}
	}
	if !seenNaN {
		t.Fatal("test table contained no NaN")
	}

	// Descending puts NaN first, still deterministically.
	var ctr Counters
	desc, err := SortTable(tab, []SortKey{{Column: "v", Desc: true}}, 4, 512, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	dv := desc.Cols[desc.Schema.Index("v")].(*colstore.Float64s).V
	if !math.IsNaN(dv[0]) {
		t.Fatalf("descending sort should lead with NaN, got %v", dv[0])
	}
}

// TestCmpOrderFTotalOrder checks the comparator is a total order:
// antisymmetric, transitive, NaN == NaN, -0 == +0.
func TestCmpOrderFTotalOrder(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	samples := []float64{math.Inf(-1), -1.5, negZero, 0, 2.5, math.Inf(1), nan,
		math.Float64frombits(0x7ff8000000000001)}

	if cmpOrderF(nan, nan) != 0 {
		t.Error("NaN should compare equal to NaN")
	}
	if cmpOrderF(negZero, 0) != 0 || cmpOrderF(0, negZero) != 0 {
		t.Error("-0 and +0 should compare equal")
	}
	if cmpOrderF(nan, math.Inf(1)) != 1 || cmpOrderF(math.Inf(1), nan) != -1 {
		t.Error("NaN should sort after +Inf")
	}
	for _, a := range samples {
		for _, b := range samples {
			if cmpOrderF(a, b) != -cmpOrderF(b, a) {
				t.Errorf("cmpOrderF(%v,%v) not antisymmetric", a, b)
			}
			for _, c := range samples {
				if cmpOrderF(a, b) <= 0 && cmpOrderF(b, c) <= 0 && cmpOrderF(a, c) > 0 {
					t.Errorf("cmpOrderF not transitive on (%v,%v,%v)", a, b, c)
				}
			}
		}
	}
}

// TestChargeSortTable pins the bits.Len64-based comparison charge,
// including the n=0 and n=1 paths math.Ilogb could not express.
func TestChargeSortTable(t *testing.T) {
	cases := []struct{ n int64 }{{0}, {1}, {2}, {3}, {1 << 20}}
	const keys = 2
	for _, c := range cases {
		var ctr Counters
		chargeSort(&ctr, c.n, keys)
		var wantInt, wantRand int64
		if c.n > 1 {
			depth := int64(bits.Len64(uint64(c.n)))
			wantInt = c.n * depth * (keys + 1)
			wantRand = c.n * depth
		}
		if ctr.IntOps != wantInt || ctr.RandomAccesses != wantRand {
			t.Errorf("chargeSort(n=%d): IntOps=%d RandomAccesses=%d, want %d/%d",
				c.n, ctr.IntOps, ctr.RandomAccesses, wantInt, wantRand)
		}
	}
}

// TestStringSortUsesDictCodesOrMaterializes covers both string
// comparator paths: code comparison for value-ordered dictionaries, and
// one-time materialization (charged to the counters) otherwise.
func TestStringSortUsesDictCodesOrMaterializes(t *testing.T) {
	mk := func(words []string, rows []int) *colstore.Table {
		d := colstore.NewDict()
		for _, w := range words {
			d.Add(w)
		}
		codes := make([]int32, len(rows))
		for i, r := range rows {
			codes[i] = int32(r)
		}
		tab, err := colstore.NewTable("t",
			colstore.Schema{{Name: "s", Type: colstore.String}},
			[]colstore.Column{&colstore.Strings{Codes: codes, Dict: d}})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	check := func(tab *colstore.Table, wantMaterialize bool) {
		t.Helper()
		var ctr Counters
		out, err := SortTable(tab, []SortKey{{Column: "s"}}, 1, 0, &ctr)
		if err != nil {
			t.Fatal(err)
		}
		col := out.Cols[0].(*colstore.Strings)
		for i := 1; i < col.Len(); i++ {
			if col.Value(i) < col.Value(i-1) {
				t.Fatalf("row %d: %q < %q — not sorted by value", i, col.Value(i), col.Value(i-1))
			}
		}
		materialized := ctr.BytesMaterialized > int64(out.SizeBytes()) // beyond the gather's own charge
		if materialized != wantMaterialize {
			t.Errorf("materialized=%v, want %v (counters %+v)", materialized, wantMaterialize, ctr)
		}
	}
	// Value-ordered dictionary: codes compare directly.
	check(mk([]string{"apple", "mango", "zebra"}, []int{2, 0, 1, 1, 0}), false)
	// Insertion-ordered dictionary: values materialize once.
	check(mk([]string{"zebra", "apple", "mango"}, []int{0, 1, 2, 1, 0}), true)
}

// TestScatterMinMaxF64NaNOrderIndependent pins the audited NaN
// semantics of the float min/max kernels: NaN inputs are skipped on
// both sides, so any input order (and thus any morsel decomposition)
// yields the same accumulator, and all-NaN groups report their fill.
func TestScatterMinMaxF64NaNOrderIndependent(t *testing.T) {
	nan := math.NaN()
	perms := [][]float64{
		{nan, 5, 3, nan, 9},
		{5, nan, 9, 3, nan},
		{9, 3, 5, nan, nan},
	}
	for _, vals := range perms {
		gids := make([]int32, len(vals))
		var ctr Counters
		mins := []float64{}
		maxs := []float64{}
		ScatterMinF64(gids, vals, &mins, 1, math.Inf(1), &ctr)
		ScatterMaxF64(gids, vals, &maxs, 1, math.Inf(-1), &ctr)
		if mins[0] != 3 || maxs[0] != 9 {
			t.Errorf("vals %v: min=%v max=%v, want 3/9", vals, mins[0], maxs[0])
		}
	}
	// All-NaN group: deterministic fill, never NaN-poisoned.
	var ctr Counters
	mins := []float64{}
	ScatterMinF64([]int32{0, 0}, []float64{nan, nan}, &mins, 1, math.Inf(1), &ctr)
	if !math.IsInf(mins[0], 1) {
		t.Errorf("all-NaN min = %v, want +Inf fill", mins[0])
	}
}
