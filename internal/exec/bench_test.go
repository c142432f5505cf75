package exec

import (
	"fmt"
	"math/rand"
	"slices"
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
// row-wise kernels of each column shape, the string masks, and the date
// range at 1 %, 50 % and 99 % selectivity (a branch on the kept rows
// would cost most near 50 %).
func BenchmarkSelect(b *testing.B) {
	tbl := benchTable()
	preds := []struct {
		name string
		p    Pred
	}{
		{"CmpI", CmpI{Column: "i", Op: Lt, V: 50}},
		{"CmpF", CmpF{Column: "f", Op: Lt, V: 50}},
		{"CmpD", CmpD{Column: "d", Op: Lt, V: 500}},
		{"DateRange", DateRange{Column: "d", Lo: 250, Hi: 750}},
		{"DateRange/1%", DateRange{Column: "d", Lo: 0, Hi: 10}},
		{"DateRange/99%", DateRange{Column: "d", Lo: 10, Hi: 1000}},
		{"FloatRange", FloatRange{Column: "f", Lo: 25, Hi: 75}},
		{"ColCmpD", ColCmpD{A: "d", B: "d2", Op: Lt}},
		{"StrIn", StrIn{Column: "s", Vals: []string{"AIR", "SHIP"}}},
		{"Like", Like{Column: "s", Pattern: "%AI_"}},
	}
	for _, p := range preds {
		for _, in := range []struct {
			name string
			sel  []int32
		}{{"dense", nil}, {"half", everyOther(benchRows)}} {
			b.Run(p.name+"/"+in.name, func(b *testing.B) {
				var ctr Counters
				for i := 0; i < b.N; i++ {
					if _, err := p.p.Sel(tbl, in.sel, &ctr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGather times GatherTable over every other row of one column
// of each kind, and of a four-column table over 16 Ki and 32 Ki selected
// rows (either side of one default morsel, the shortest selection that
// splits across workers), over all 64 Ki rows but the first
// (dense, a full copy) and over all of them (identity, which hands over
// the input's columns), at one worker (the sequential Gather) and at two
// (the morsel-parallel gather). view/compose times a lazy gather of every
// other row of a four-column view over all 64 Ki rows in reverse
// (Table.View, one composed row list, sequential at either worker
// count), and view/materialize the copy of its result (Materialize, one
// gather from the roots).
func BenchmarkGather(b *testing.B) {
	tbl := benchTable()
	run := func(name string, op func(w int, ctr *Counters) (*colstore.Table, error)) {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W=%d", name, w), func(b *testing.B) {
				var ctr Counters
				for i := 0; i < b.N; i++ {
					if _, err := op(w, &ctr); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	gather := func(name string, t *colstore.Table, sel []int32) {
		run(name, func(w int, ctr *Counters) (*colstore.Table, error) { return GatherTable(t, sel, w, 0, ctr) })
	}
	for _, name := range []string{"i", "f", "d", "b", "s"} {
		c := tbl.MustCol(name)
		gather(c.Type().String(), colstore.MustNewTable("t", colstore.Schema{{Name: name, Type: c.Type()}}, []colstore.Column{c}), everyOther(benchRows))
	}
	four, err := tbl.Project("i", "f", "d", "s")
	if err != nil {
		b.Fatal(err)
	}
	for _, sel := range [][]int32{everyOther(benchRows / 2), everyOther(benchRows)} {
		gather(fmt.Sprintf("4cols/rows=%d", len(sel)), four, sel)
	}
	gather("4cols/dense", four, SelAll(benchRows)[1:])
	gather("4cols/identity", four, SelAll(benchRows))

	reverse := SelAll(benchRows)
	slices.Reverse(reverse)
	view, half := four.View(reverse), everyOther(benchRows)
	composed := view.View(half)
	run("view/compose", func(int, *Counters) (*colstore.Table, error) { return view.View(half), nil })
	run("view/materialize", func(w int, ctr *Counters) (*colstore.Table, error) {
		return Materialize(composed, nil, w, 0, ctr)
	})
}

// BenchmarkJoinProbe times the sequential inner and semi probes of 32 Ki
// keys against 20 000 build rows, in both layouts, over unique keys and
// over keys that each have two build rows, at 1 %, 50 % and 100 % hits;
// it reports ns per probe row. Build keys are the even numbers of a
// compact range and misses the odd ones, so a positional miss passes the
// bounds check and only the match itself varies from row to row.
func BenchmarkJoinProbe(b *testing.B) {
	const nBuild, nProbe = 20_000, 1 << 15
	rng := rand.New(rand.NewSource(1))
	for _, dups := range []bool{false, true} {
		build := make([]int64, nBuild)
		for i, j := range rng.Perm(nBuild) {
			if dups {
				j /= 2
			}
			build[i] = 2 * int64(j)
		}
		var ctr Counters
		base, span, _ := KeySpan(build, &ctr)
		positional, err := BuildPositionalJoinTable(build, base, span, &ctr)
		if err != nil {
			b.Fatal(err)
		}
		tables := []struct {
			name string
			jt   *JoinTable
		}{{"positional", positional}, {"chained", BuildJoinTable(build, &ctr)}}
		for _, hits := range []int{1, 50, 100} {
			probe := make([]int64, nProbe)
			for i := range probe {
				probe[i] = build[rng.Intn(nBuild)] + b2i(rng.Intn(100) >= hits)
			}
			for _, tb := range tables {
				name := fmt.Sprintf("%s/unique=%t/hits=%d%%", tb.name, !dups, hits)
				kinds := []struct {
					name  string
					probe func() error
				}{
					{"inner", func() error { _, _, err := tb.jt.InnerJoin(probe, 1, 0, &ctr); return err }},
					{"semi", func() error { _, err := tb.jt.SemiJoin(probe, 1, 0, &ctr); return err }},
				}
				for _, k := range kinds {
					b.Run(k.name+"/"+name, func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if err := k.probe(); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nProbe, "ns/row")
					})
				}
			}
		}
	}
}
