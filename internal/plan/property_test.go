package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// randTable builds a table of n rows with an int64 key in [0, keyRange),
// a float value and a low-cardinality string tag.
func randTable(rng *rand.Rand, name string, n, keyRange int) *colstore.Table {
	b := colstore.NewTableBuilder(name, colstore.Schema{
		{Name: name + "_key", Type: colstore.Int64},
		{Name: name + "_val", Type: colstore.Float64},
		{Name: name + "_tag", Type: colstore.String},
	})
	tags := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		b.Int(0, rng.Int63n(int64(keyRange)))
		b.Float(1, float64(rng.Intn(1000))/10)
		b.Str(2, tags[rng.Intn(len(tags))])
		b.EndRow()
	}
	return b.Build()
}

func TestInnerJoinPlanAgainstNestedLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		left := randTable(rng, "l", rng.Intn(120), 20)
		right := randTable(rng, "r", rng.Intn(120), 20)
		cat := memCatalog{"l": left, "r": right}
		out, err := runTable(cat, 1, &HashJoin{
			Build:     &Scan{Table: "l"},
			Probe:     &Scan{Table: "r"},
			BuildKeys: []string{"l_key"},
			ProbeKeys: []string{"r_key"},
			Kind:      Inner,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Nested-loop oracle: count matches per key pair.
		lk := left.MustCol("l_key").(*colstore.Int64s).V
		rk := right.MustCol("r_key").(*colstore.Int64s).V
		want := 0
		for _, a := range lk {
			for _, b := range rk {
				if a == b {
					want++
				}
			}
		}
		if out.NumRows() != want {
			t.Fatalf("trial %d: join rows = %d, oracle %d", trial, out.NumRows(), want)
		}
		// Every output row satisfies the predicate.
		ok := out.MustCol("l_key").(*colstore.Int64s).V
		pk := out.MustCol("r_key").(*colstore.Int64s).V
		for i := range ok {
			if ok[i] != pk[i] {
				t.Fatalf("trial %d: row %d violates join condition", trial, i)
			}
		}
	}
}

func TestSemiAntiPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		left := randTable(rng, "l", rng.Intn(100), 15)
		right := randTable(rng, "r", rng.Intn(100)+1, 15)
		cat := memCatalog{"l": left, "r": right}
		semi, err := runTable(cat, 1, &HashJoin{
			Build: &Scan{Table: "l"}, Probe: &Scan{Table: "r"},
			BuildKeys: []string{"l_key"}, ProbeKeys: []string{"r_key"}, Kind: Semi,
		})
		if err != nil {
			t.Fatal(err)
		}
		anti, err := runTable(cat, 1, &HashJoin{
			Build: &Scan{Table: "l"}, Probe: &Scan{Table: "r"},
			BuildKeys: []string{"l_key"}, ProbeKeys: []string{"r_key"}, Kind: Anti,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Semi and anti partition the probe side.
		if semi.NumRows()+anti.NumRows() != right.NumRows() {
			t.Fatalf("trial %d: semi %d + anti %d != probe %d",
				trial, semi.NumRows(), anti.NumRows(), right.NumRows())
		}
	}
}

func TestGroupByAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		tbl := randTable(rng, "t", rng.Intn(300), 10)
		cat := memCatalog{"t": tbl}
		out, err := runTable(cat, 1, &GroupBy{
			Input: &Scan{Table: "t"},
			Keys:  []string{"t_key", "t_tag"},
			Aggs: []AggSpec{
				{Name: "s", Func: Sum, Arg: exec.Col{Name: "t_val"}},
				{Name: "n", Func: Count},
				{Name: "mn", Func: Min, Arg: exec.Col{Name: "t_val"}},
				{Name: "mx", Func: Max, Arg: exec.Col{Name: "t_val"}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			k   int64
			tag string
		}
		type agg struct {
			s, mn, mx float64
			n         int64
		}
		oracle := map[key]*agg{}
		keys := tbl.MustCol("t_key").(*colstore.Int64s).V
		vals := tbl.MustCol("t_val").(*colstore.Float64s).V
		tags := tbl.MustCol("t_tag").(*colstore.Strings)
		for i := range keys {
			k := key{keys[i], tags.Value(i)}
			a := oracle[k]
			if a == nil {
				a = &agg{mn: 1e300, mx: -1e300}
				oracle[k] = a
			}
			a.s += vals[i]
			a.n++
			if vals[i] < a.mn {
				a.mn = vals[i]
			}
			if vals[i] > a.mx {
				a.mx = vals[i]
			}
		}
		if out.NumRows() != len(oracle) {
			t.Fatalf("trial %d: %d groups, oracle %d", trial, out.NumRows(), len(oracle))
		}
		gk := out.MustCol("t_key").(*colstore.Int64s).V
		gt := out.MustCol("t_tag").(*colstore.Strings)
		gs := out.MustCol("s").(*colstore.Float64s).V
		gn := out.MustCol("n").(*colstore.Int64s).V
		gmn := out.MustCol("mn").(*colstore.Float64s).V
		gmx := out.MustCol("mx").(*colstore.Float64s).V
		for i := range gk {
			a := oracle[key{gk[i], gt.Value(i)}]
			if a == nil {
				t.Fatalf("trial %d: unexpected group (%d, %s)", trial, gk[i], gt.Value(i))
			}
			if a.n != gn[i] || !close(a.s, gs[i]) || !close(a.mn, gmn[i]) || !close(a.mx, gmx[i]) {
				t.Fatalf("trial %d: group (%d,%s) = (%g,%d,%g,%g), oracle (%g,%d,%g,%g)",
					trial, gk[i], gt.Value(i), gs[i], gn[i], gmn[i], gmx[i], a.s, a.n, a.mn, a.mx)
			}
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

func TestOrderByProperty(t *testing.T) {
	f := func(vals []int16) bool {
		b := colstore.NewTableBuilder("t", colstore.Schema{{Name: "v", Type: colstore.Int64}})
		for _, v := range vals {
			b.Int(0, int64(v))
			b.EndRow()
		}
		cat := memCatalog{"t": b.Build()}
		out, err := runTable(cat, 1, &OrderBy{
			Input: &Scan{Table: "t"},
			Keys:  []exec.SortKey{{Column: "v", Desc: true}},
		})
		if err != nil {
			return false
		}
		got := out.MustCol("v").(*colstore.Int64s).V
		if len(got) != len(vals) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] < got[i] {
				return false
			}
		}
		// Top-3 must equal the first 3 of the full sort.
		top, err := runTable(cat, 1, &OrderBy{
			Input: &Scan{Table: "t"},
			Keys:  []exec.SortKey{{Column: "v", Desc: true}},
			N:     3,
		})
		if err != nil {
			return false
		}
		tv := top.MustCol("v").(*colstore.Int64s).V
		for i := range tv {
			if tv[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterCompositionProperty(t *testing.T) {
	// filter(p1) . filter(p2) == filter(p1 AND p2)
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		tbl := randTable(rng, "t", rng.Intn(400), 50)
		cat := memCatalog{"t": tbl}
		p1 := exec.CmpI{Column: "t_key", Op: exec.Ge, V: 10}
		p2 := exec.CmpF{Column: "t_val", Op: exec.Lt, V: 60}
		chained, err := runTable(cat, 1, &Filter{
			Input: &Filter{Input: &Scan{Table: "t"}, Pred: p1},
			Pred:  p2,
		})
		if err != nil {
			t.Fatal(err)
		}
		combined, err := runTable(cat, 1, &Scan{Table: "t", Pred: exec.AndOf(p1, p2)})
		if err != nil {
			t.Fatal(err)
		}
		if chained.NumRows() != combined.NumRows() {
			t.Fatalf("trial %d: chained %d != combined %d", trial, chained.NumRows(), combined.NumRows())
		}
		a := chained.MustCol("t_key").(*colstore.Int64s).V
		b := combined.MustCol("t_key").(*colstore.Int64s).V
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: row %d differs", trial, i)
			}
		}
	}
}
