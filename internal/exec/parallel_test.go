package exec

// Property tests for the parallel kernels: with any worker count and a
// tiny morsel size, every parallel kernel must reproduce its sequential
// oracle exactly — bit-for-bit, order included.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wimpi/internal/colstore"
)

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRunMorselsCoversRangeOnce(t *testing.T) {
	f := func(n uint16, workers uint8, morsel uint8) bool {
		nn := int(n) % 5000
		w := int(workers)%8 + 1
		mr := int(morsel)%64 + 1
		seen := make([]int32, nn)
		var ctr Counters
		err := RunMorsels(w, nn, mr, &ctr, func(m, lo, hi int, c *Counters) error {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			c.IntOps++
			return nil
		})
		if err != nil {
			return false
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return nn == 0 || ctr.IntOps == int64(NumMorsels(nn, mr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestArgSortParallelMatchesSequential(t *testing.T) {
	f := func(vals []int16, workers uint8) bool {
		n := len(vals)
		iv := make([]int64, n)
		fv := make([]float64, n)
		for i, v := range vals {
			iv[i] = int64(v) % 16 // heavy ties exercise stability
			fv[i] = float64(v % 7)
		}
		tbl := colstore.MustNewTable("t", colstore.Schema{
			{Name: "k", Type: colstore.Int64},
			{Name: "f", Type: colstore.Float64},
		}, []colstore.Column{&colstore.Int64s{V: iv}, &colstore.Float64s{V: fv}})
		keys := []SortKey{{Column: "k"}, {Column: "f", Desc: true}}
		w := int(workers)%8 + 1

		var seqCtr, parCtr Counters
		seq, err := ArgSort(tbl, keys, &seqCtr)
		if err != nil {
			return false
		}
		par, err := argSortMerge(tbl, keys, w, 5, &parCtr)
		if err != nil {
			return false
		}
		return int32sEqual(seq, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArgSortParallelLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := sortParallelMinRows * 2
	iv := make([]int64, n)
	for i := range iv {
		iv[i] = rng.Int63n(50)
	}
	tbl := colstore.MustNewTable("t", colstore.Schema{{Name: "k", Type: colstore.Int64}},
		[]colstore.Column{&colstore.Int64s{V: iv}})
	keys := []SortKey{{Column: "k"}}
	var seqCtr, parCtr Counters
	seq, err := ArgSort(tbl, keys, &seqCtr)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ArgSortParallel(tbl, keys, 8, 1024, &parCtr)
	if err != nil {
		t.Fatal(err)
	}
	if !int32sEqual(seq, par) {
		t.Fatal("parallel sort differs from sequential")
	}
}

func TestGatherTableMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := gatherParallelMinRows * 2
	iv := make([]int64, n)
	sv := make([]string, n)
	for i := range iv {
		iv[i] = rng.Int63n(1000)
		sv[i] = []string{"x", "y", "z"}[rng.Intn(3)]
	}
	b := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "i", Type: colstore.Int64},
		{Name: "s", Type: colstore.String},
	})
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.Int(0, iv[i])
		b.Str(1, sv[i])
		b.EndRow()
	}
	tbl := b.Build()
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(rng.Intn(n))
	}
	want := tbl.Gather(sel)
	got, err := GatherTable(tbl, sel, 8, 1024, &Counters{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows %d vs %d", got.NumRows(), want.NumRows())
	}
	wi := want.MustCol("i").(*colstore.Int64s).V
	gi := got.MustCol("i").(*colstore.Int64s).V
	ws := want.MustCol("s").(*colstore.Strings)
	gs := got.MustCol("s").(*colstore.Strings)
	for i := 0; i < n; i++ {
		if wi[i] != gi[i] || ws.Value(i) != gs.Value(i) {
			t.Fatalf("row %d differs", i)
		}
	}
}
