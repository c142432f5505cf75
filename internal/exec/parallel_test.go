package exec

// Property tests for the parallel kernels: with any worker count and a
// tiny morsel size, every parallel kernel must reproduce its sequential
// oracle exactly — bit-for-bit, order included.

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"wimpi/internal/colstore"
)

// testMorsel is the morsel size the kernels' parallel paths are tested
// at: inputs are sized in morsels of it, so every one splits.
const testMorsel = 1024

// splits counts the dispatches fn makes that cut their range into more
// than one morsel: nonzero when fn took a kernel's parallel path.
func splits(fn func()) int {
	n := 0
	MorselHook = func(_, morsels int) {
		if morsels > 1 {
			n++
		}
	}
	defer func() { MorselHook = nil }()
	fn()
	return n
}

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

// everyKindTable builds n random rows of a table with a column of every
// kind.
func everyKindTable(rng *rand.Rand, n int) *colstore.Table {
	b := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "i", Type: colstore.Int64},
		{Name: "f", Type: colstore.Float64},
		{Name: "d", Type: colstore.Date},
		{Name: "b", Type: colstore.Bool},
		{Name: "s", Type: colstore.String},
	})
	b.Grow(n)
	for i := 0; i < n; i++ {
		b.Int(0, rng.Int63n(1000))
		b.Float(1, rng.Float64())
		b.Date(2, int32(rng.Intn(5000)))
		b.Bool(3, rng.Intn(2) == 0)
		b.Str(4, []string{"x", "y", "z"}[rng.Intn(3)])
		b.EndRow()
	}
	return b.Build()
}

// TestGatherTableMatchesSequential gathers a table with a column of
// every kind through a random selection, morsel-parallel, and requires
// exactly the sequential Gather's table.
func TestGatherTableMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4 * testMorsel
	tbl := everyKindTable(rng, n)
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(rng.Intn(n))
	}
	var got *colstore.Table
	var err error
	if splits(func() { got, err = GatherTable(tbl, sel, 8, testMorsel, &Counters{}) }) == 0 {
		t.Fatal("GatherTable took the sequential path")
	}
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := colstore.TablesIdentical(tbl.Gather(sel), got); !ok {
		t.Fatal(why)
	}
}

// colData returns a pointer to the first element of c's storage.
func colData(c colstore.Column) any {
	switch c := c.(type) {
	case *colstore.Int64s:
		return &c.V[0]
	case *colstore.Float64s:
		return &c.V[0]
	case *colstore.Dates:
		return &c.V[0]
	case *colstore.Bools:
		return &c.V[0]
	case *colstore.Strings:
		return &c.Codes[0]
	}
	panic("unknown column kind")
}

// TestGatherTableIdentity: an identity selection hands over the input's
// columns, sharing their storage, at one worker and at eight; a
// selection of the same length that is not the identity still copies;
// an empty table gathers; and a cancelled query's identity gather fails.
func TestGatherTableIdentity(t *testing.T) {
	n := 4 * testMorsel
	tbl := everyKindTable(rand.New(rand.NewSource(7)), n)
	reverse, swapped, repeat := make([]int32, n), SelAll(n), SelAll(n)
	for i := range reverse {
		reverse[i] = int32(n - 1 - i)
	}
	swapped[n/2], swapped[n/2+1] = swapped[n/2+1], swapped[n/2]
	repeat[1] = 0
	cases := []struct {
		name   string
		sel    []int32
		shared bool
	}{{"identity", SelAll(n), true}, {"repeat", repeat, false}, {"reverse", reverse, false}, {"swapped", swapped, false}}
	empty := everyKindTable(rand.New(rand.NewSource(7)), 0)
	for _, w := range []int{1, 8} {
		for _, c := range cases {
			var got *colstore.Table
			var err error
			split := splits(func() { got, err = GatherTable(tbl, c.sel, w, testMorsel, &Counters{}) }) > 0
			if err != nil {
				t.Fatal(err)
			}
			if split != (w > 1 && !c.shared) {
				t.Fatalf("W=%d %s: gather split into morsels: %v", w, c.name, split)
			}
			if ok, why := colstore.TablesIdentical(tbl.Gather(c.sel), got); !ok {
				t.Fatalf("W=%d %s: %s", w, c.name, why)
			}
			for i, col := range got.Cols {
				if shared := colData(col) == colData(tbl.Cols[i]); shared != c.shared {
					t.Fatalf("W=%d %s: column %d shares the input's storage: %v, want %v", w, c.name, i, shared, c.shared)
				}
			}
		}
		got, err := GatherTable(empty, []int32{}, w, testMorsel, &Counters{})
		if err != nil || got.NumRows() != 0 || got.NumCols() != empty.NumCols() {
			t.Fatalf("W=%d empty: %v, err %v", w, got, err)
		}
		sched := NewSched(context.Background())
		var ctr Counters
		ctr.SetSched(sched)
		sched.Cancel(context.Canceled)
		if _, err := GatherTable(tbl, cases[0].sel, w, testMorsel, &ctr); !errors.Is(err, context.Canceled) {
			t.Fatalf("W=%d cancelled identity: err = %v, want context.Canceled", w, err)
		}
		sched.Release()
	}
}

// TestMaterializeMatchesGather: a table whose columns are views over two
// row lists (a selection composed onto a view, beside a column that was
// dense before it) materializes, sequentially and morsel-parallel, to
// exactly the eager Gather chain; a named subset copies only those
// columns; and a cancelled query's materialization errors.
func TestMaterializeMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 6 * testMorsel
	tbl := everyKindTable(rng, n)
	first, second := make([]int32, n), make([]int32, 4*testMorsel)
	for i := range first {
		first[i] = int32(rng.Intn(n))
	}
	for i := range second {
		second[i] = int32(rng.Intn(n))
	}
	mid := tbl.View(first)
	mid.Cols[1] = tbl.Cols[1].Gather(first) // a dense column among views
	views := mid.View(second)
	want := tbl.Gather(first).Gather(second)
	for _, w := range []int{1, 8} {
		var got *colstore.Table
		var err error
		if split := splits(func() { got, err = Materialize(views, nil, w, testMorsel, &Counters{}) }) > 0; split != (w > 1) {
			t.Fatalf("W=%d: materialization split into morsels: %v", w, split)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := colstore.TablesIdentical(want, got); !ok {
			t.Fatalf("W=%d: %s", w, why)
		}
		part, err := Materialize(views, []string{"f", "s"}, w, testMorsel, &Counters{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range part.Cols {
			_, view := c.(*colstore.View)
			if name := part.Schema[i].Name; view != (name != "f" && name != "s") {
				t.Fatalf("W=%d: column %s a view after materializing [f s]: %v", w, name, view)
			}
		}
		sched := NewSched(context.Background())
		var ctr Counters
		ctr.SetSched(sched)
		sched.Cancel(context.Canceled)
		if _, err := Materialize(views, nil, w, testMorsel, &ctr); !errors.Is(err, context.Canceled) {
			t.Fatalf("W=%d cancelled: err = %v, want context.Canceled", w, err)
		}
		sched.Release()
	}
}
