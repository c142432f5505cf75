package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestViewCompose: for every column kind, a chain of row lists applied
// as views — empty, identity, reverse, with duplicates, and random
// chains of one to four compositions — stays one view over the root
// column, reports the length, size and slices of the eager Gather chain,
// and materializes to exactly its values, byte for byte.
func TestViewCompose(t *testing.T) {
	const n = 37
	rng := rand.New(rand.NewSource(5))
	dict := NewDict()
	for i := 0; i < 9; i++ {
		dict.Add(fmt.Sprintf("v%d", i))
	}
	roots := map[string]Column{
		"int64":   &Int64s{V: make([]int64, n)},
		"float64": &Float64s{V: make([]float64, n)},
		"date":    &Dates{V: make([]int32, n)},
		"string":  &Strings{Codes: make([]int32, n), Dict: dict},
		"bool":    &Bools{V: make([]bool, n)},
	}
	for i := 0; i < n; i++ {
		roots["int64"].(*Int64s).V[i] = rng.Int63() - rng.Int63()
		roots["float64"].(*Float64s).V[i] = rng.NormFloat64()
		roots["date"].(*Dates).V[i] = int32(rng.Intn(20000))
		roots["string"].(*Strings).Codes[i] = int32(rng.Intn(dict.Len()))
		roots["bool"].(*Bools).V[i] = rng.Intn(2) == 0
	}
	identity := func(m int) []int32 {
		s := make([]int32, m)
		for i := range s {
			s[i] = int32(i)
		}
		return s
	}
	reverse := func(m int) []int32 {
		s := identity(m)
		for i, j := 0, m-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
		return s
	}
	random := func(m int) []int32 { // duplicates, any order, any length
		s := make([]int32, rng.Intn(2*m+1))
		for i := range s {
			s[i] = int32(rng.Intn(m))
		}
		return s
	}
	chains := map[string][]func(m int) []int32{
		"empty":                    {func(int) []int32 { return []int32{} }},
		"identity":                 {identity},
		"reverse":                  {reverse},
		"duplicates":               {func(m int) []int32 { return []int32{0, 0, int32(m - 1), 0, int32(m - 1)} }},
		"reverse∘identity∘reverse": {reverse, identity, reverse},
	}
	for i := 0; i < 20; i++ {
		var c []func(m int) []int32
		for j := 0; j < 1+rng.Intn(4); j++ {
			c = append(c, random)
		}
		chains[fmt.Sprintf("random%d/len=%d", i, len(c))] = c
	}
	for kind, root := range roots {
		for name, chain := range chains {
			t.Run(kind+"/"+name, func(t *testing.T) {
				var view Column = root
				eager := root
				for _, rows := range chain {
					sel := rows(eager.Len())
					view, eager = viewOf(view, sel), eager.Gather(sel)
				}
				v, ok := view.(*View)
				if !ok {
					t.Fatalf("got %T, want a view", view)
				}
				if v.Base != root {
					t.Fatalf("view's base is %T %p, want the root %p", v.Base, v.Base, root)
				}
				if v.Len() != eager.Len() || v.SizeBytes() != eager.SizeBytes() || v.Type() != eager.Type() {
					t.Fatalf("len/size/type %d/%d/%s, eager %d/%d/%s",
						v.Len(), v.SizeBytes(), v.Type(), eager.Len(), eager.SizeBytes(), eager.Type())
				}
				if got := v.Base.Gather(v.Rows); !reflect.DeepEqual(got, eager) {
					t.Fatalf("materialized %v, eager chain %v", got, eager)
				}
				if m := v.Len(); m > 0 {
					lo, hi := rng.Intn(m), m
					s, ok := v.Slice(lo, hi).(*View)
					if !ok || s.Base != root {
						t.Fatalf("slice [%d,%d) is not a view over the root", lo, hi)
					}
					if got, want := s.Base.Gather(s.Rows), eager.Slice(lo, hi); !reflect.DeepEqual(got, want) ||
						s.Len() != want.Len() || s.SizeBytes() != want.SizeBytes() {
						t.Fatalf("slice [%d,%d): %v, eager %v", lo, hi, got, want)
					}
				}
			})
		}
	}
}

// TestTableViewComposesOncePerRowList: a table view shares one composed
// row list among the columns that shared one before, keeps separate ones
// apart, and an identity selection hands over the same row lists.
func TestTableViewComposesOncePerRowList(t *testing.T) {
	a := &Int64s{V: []int64{10, 11, 12, 13}}
	b := &Dates{V: []int32{20, 21, 22, 23}}
	c := &Bools{V: []bool{true, false, true, false}}
	first := []int32{3, 1, 2}
	tbl := MustNewTable("t", Schema{{"a", Int64}, {"b", Date}, {"c", Bool}},
		[]Column{viewOf(a, first), viewOf(b, first), c.Slice(0, 3)})
	out := tbl.View([]int32{2, 0})
	va, vb, vc := out.Cols[0].(*View), out.Cols[1].(*View), out.Cols[2].(*View)
	if &va.Rows[0] != &vb.Rows[0] {
		t.Fatal("columns sharing a row list got two composed lists")
	}
	if !reflect.DeepEqual(va.Rows, []int32{2, 3}) || !reflect.DeepEqual(vc.Rows, []int32{2, 0}) {
		t.Fatalf("rows %v and %v, want [2 3] and [2 0]", va.Rows, vc.Rows)
	}
	if va.Base != a || vb.Base != b {
		t.Fatal("a table view is not over the roots")
	}
	same := out.View([]int32{0, 1})
	if &same.Cols[0].(*View).Rows[0] != &va.Rows[0] {
		t.Fatal("an identity selection composed a new row list")
	}
}
