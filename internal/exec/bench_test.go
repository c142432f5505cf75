package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"wimpi/internal/colstore"
)

// benchRows is the row count of the selection and gather benchmarks:
// two default morsels.
const benchRows = 1 << 16

// benchTable holds one column of every kind over benchRows random rows,
// each predicate below keeping about half of them.
func benchTable() *colstore.Table {
	rng := rand.New(rand.NewSource(1))
	tb := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "i", Type: colstore.Int64},
		{Name: "f", Type: colstore.Float64},
		{Name: "d", Type: colstore.Date},
		{Name: "d2", Type: colstore.Date},
		{Name: "b", Type: colstore.Bool},
		{Name: "s", Type: colstore.String},
	})
	for r := 0; r < benchRows; r++ {
		tb.Int(0, rng.Int63n(100))
		tb.Float(1, rng.Float64()*100)
		tb.Date(2, int32(rng.Intn(1000)))
		tb.Date(3, int32(rng.Intn(1000)))
		tb.Bool(4, rng.Intn(2) == 0)
		tb.Str(5, []string{"AIR", "MAIL", "SHIP", "RAIL"}[rng.Intn(4)])
		tb.EndRow()
	}
	return tb.Build()
}

// everyOther is the ascending selection of the odd rows below n.
func everyOther(n int) []int32 {
	sel := make([]int32, 0, n/2)
	for r := 1; r < n; r += 2 {
		sel = append(sel, int32(r))
	}
	return sel
}

// BenchmarkSelect times one predicate's Sel over benchRows rows, dense
// and through a selection of every other row: the compare, range and
// row-wise kernels of each column shape.
func BenchmarkSelect(b *testing.B) {
	tbl := benchTable()
	preds := []Pred{
		CmpI{Column: "i", Op: Lt, V: 50},
		CmpF{Column: "f", Op: Lt, V: 50},
		CmpD{Column: "d", Op: Lt, V: 500},
		DateRange{Column: "d", Lo: 250, Hi: 750},
		FloatRange{Column: "f", Lo: 25, Hi: 75},
		ColCmpD{A: "d", B: "d2", Op: Lt},
	}
	for _, p := range preds {
		for _, in := range []struct {
			name string
			sel  []int32
		}{{"dense", nil}, {"half", everyOther(benchRows)}} {
			b.Run(fmt.Sprintf("%T/%s", p, in.name), func(b *testing.B) {
				var ctr Counters
				for i := 0; i < b.N; i++ {
					if _, err := p.Sel(tbl, in.sel, &ctr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGather times GatherTable over every other row of one column
// of each kind, at one worker (the sequential Gather) and at two (the
// morsel-parallel gather).
func BenchmarkGather(b *testing.B) {
	tbl := benchTable()
	sel := everyOther(benchRows)
	for _, name := range []string{"i", "f", "d", "b", "s"} {
		c := tbl.MustCol(name)
		one := colstore.MustNewTable("t", colstore.Schema{{Name: name, Type: c.Type()}}, []colstore.Column{c})
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W=%d", c.Type(), w), func(b *testing.B) {
				var ctr Counters
				for i := 0; i < b.N; i++ {
					if _, err := GatherTable(one, sel, w, 0, &ctr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
