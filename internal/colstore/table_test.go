package colstore

import (
	"testing"
	"testing/quick"
)

func smallTable(t *testing.T) *Table {
	t.Helper()
	schema := Schema{
		{Name: "k", Type: Int64},
		{Name: "x", Type: Float64},
		{Name: "d", Type: Date},
		{Name: "s", Type: String},
		{Name: "b", Type: Bool},
	}
	b := NewTableBuilder("small", schema)
	vals := []string{"alpha", "beta", "alpha", "gamma", "beta"}
	for i := 0; i < 5; i++ {
		b.Int(0, int64(i*10))
		b.Float(1, float64(i)/2)
		b.Date(2, int32(1000+i))
		b.Str(3, vals[i])
		b.Bool(4, i%2 == 0)
		b.EndRow()
	}
	return b.Build()
}

func TestTableBuilderAndAccessors(t *testing.T) {
	tbl := smallTable(t)
	if tbl.NumRows() != 5 || tbl.NumCols() != 5 {
		t.Fatalf("got %dx%d, want 5x5", tbl.NumRows(), tbl.NumCols())
	}
	k := tbl.MustCol("k").(*Int64s)
	if k.V[3] != 30 {
		t.Errorf("k[3] = %d, want 30", k.V[3])
	}
	s := tbl.MustCol("s").(*Strings)
	if s.Value(2) != "alpha" || s.Value(3) != "gamma" {
		t.Errorf("string values wrong: %q %q", s.Value(2), s.Value(3))
	}
	if s.Dict.Len() != 3 {
		t.Errorf("dict size = %d, want 3", s.Dict.Len())
	}
	if _, err := tbl.ColByName("nope"); err == nil {
		t.Error("ColByName(nope) succeeded, want error")
	}
	if tbl.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestNewTableValidation(t *testing.T) {
	schema := Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Float64}}
	// Mismatched column count.
	if _, err := NewTable("t", schema, []Column{&Int64s{V: []int64{1}}}); err == nil {
		t.Error("want error for wrong column count")
	}
	// Mismatched type.
	if _, err := NewTable("t", schema, []Column{
		&Int64s{V: []int64{1}}, &Int64s{V: []int64{2}},
	}); err == nil {
		t.Error("want error for wrong column type")
	}
	// Mismatched length.
	if _, err := NewTable("t", schema, []Column{
		&Int64s{V: []int64{1, 2}}, &Float64s{V: []float64{1}},
	}); err == nil {
		t.Error("want error for ragged columns")
	}
	// Nil column.
	if _, err := NewTable("t", schema, []Column{nil, &Float64s{V: []float64{1}}}); err == nil {
		t.Error("want error for nil column")
	}
}

func TestGatherAndSlice(t *testing.T) {
	tbl := smallTable(t)
	g := tbl.Gather([]int32{4, 0, 2})
	if g.NumRows() != 3 {
		t.Fatalf("gather rows = %d, want 3", g.NumRows())
	}
	if g.MustCol("k").(*Int64s).V[0] != 40 {
		t.Errorf("gathered k[0] wrong")
	}
	if g.MustCol("s").(*Strings).Value(2) != "alpha" {
		t.Errorf("gathered s[2] wrong")
	}
	sl := tbl.Slice(1, 4)
	if sl.NumRows() != 3 {
		t.Fatalf("slice rows = %d", sl.NumRows())
	}
	if sl.MustCol("d").(*Dates).V[0] != 1001 {
		t.Errorf("sliced d[0] wrong")
	}
	if sl.MustCol("b").(*Bools).V[0] {
		t.Errorf("sliced b[0] should be false")
	}
}

func TestProject(t *testing.T) {
	tbl := smallTable(t)
	p, err := tbl.Project("s", "k")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Schema[0].Name != "s" || p.Schema[1].Name != "k" {
		t.Fatalf("bad projection schema: %v", p.Schema.Names())
	}
	if p.NumRows() != tbl.NumRows() {
		t.Fatalf("projection rows = %d", p.NumRows())
	}
	if _, err := tbl.Project("missing"); err == nil {
		t.Error("Project(missing) succeeded, want error")
	}
}

func TestGatherPropertyAllColumnTypes(t *testing.T) {
	// Property: gathering with an identity selection returns equal values.
	f := func(ints []int64, sel8 []uint8) bool {
		if len(ints) == 0 {
			return true
		}
		c := &Int64s{V: ints}
		sel := make([]int32, len(sel8))
		for i, s := range sel8 {
			sel[i] = int32(int(s) % len(ints))
		}
		g := c.Gather(sel).(*Int64s)
		for i, s := range sel {
			if g.V[i] != ints[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Add("x")
	b := d.Add("y")
	if a2 := d.Add("x"); a2 != a {
		t.Errorf("re-Add changed code: %d vs %d", a2, a)
	}
	if c, ok := d.Lookup("y"); !ok || c != b {
		t.Errorf("Lookup(y) = %d,%v", c, ok)
	}
	if _, ok := d.Lookup("z"); ok {
		t.Error("Lookup(z) should miss")
	}
	mask := d.MatchMask(func(s string) bool { return s == "y" })
	if mask[a] || !mask[b] {
		t.Errorf("MatchMask wrong: %v", mask)
	}
	cl := d.Clone()
	cl.Add("z")
	if d.Len() != 2 || cl.Len() != 3 {
		t.Errorf("clone not independent: %d %d", d.Len(), cl.Len())
	}
	if d.SizeBytes() <= 0 {
		t.Error("dict SizeBytes not positive")
	}
}

func TestTypeString(t *testing.T) {
	for _, c := range []struct {
		ty   Type
		name string
	}{
		{Int64, "int64"}, {Float64, "float64"}, {Date, "date"},
		{String, "string"}, {Bool, "bool"},
	} {
		if c.ty.String() != c.name {
			t.Errorf("%v.String() = %q", c.ty, c.ty.String())
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type handling wrong")
	}
}

func TestBuilderSharedDictAndGrow(t *testing.T) {
	schema := Schema{{Name: "s", Type: String}}
	shared := NewDict()
	shared.Add("pre")
	b := NewTableBuilder("t", schema)
	b.SetDict(0, shared)
	b.Grow(4)
	b.Str(0, "pre")
	b.EndRow()
	b.Str(0, "new")
	b.EndRow()
	tbl := b.Build()
	col := tbl.MustCol("s").(*Strings)
	if col.Dict != shared {
		t.Error("dict not shared")
	}
	if col.Value(0) != "pre" || col.Value(1) != "new" {
		t.Errorf("values wrong: %q %q", col.Value(0), col.Value(1))
	}
}

func TestBuilderEndRowPanicsOnRaggedRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EndRow did not panic on ragged row")
		}
	}()
	schema := Schema{{Name: "a", Type: Int64}, {Name: "b", Type: Int64}}
	b := NewTableBuilder("t", schema)
	b.Int(0, 1) // column b never filled
	b.EndRow()
}

func TestEmptyBuild(t *testing.T) {
	schema := Schema{
		{Name: "a", Type: Int64}, {Name: "b", Type: Float64},
		{Name: "c", Type: Date}, {Name: "d", Type: String}, {Name: "e", Type: Bool},
	}
	tbl := NewTableBuilder("t", schema).Build()
	if tbl.NumRows() != 0 {
		t.Fatalf("empty build has %d rows", tbl.NumRows())
	}
	g := tbl.Gather(nil)
	if g.NumRows() != 0 {
		t.Fatal("gather of empty table not empty")
	}
}

func TestAccessorsAndNames(t *testing.T) {
	tbl := smallTable(t)
	if got := tbl.Schema.Names(); len(got) != 5 || got[0] != "k" || got[4] != "b" {
		t.Errorf("Names = %v", got)
	}
	if tbl.Col(1).Type() != Float64 {
		t.Error("Col(1) wrong")
	}
	if tbl.NumRows() != smallTable(t).NumRows() {
		t.Error("NumRows unstable")
	}
	d := tbl.MustCol("s").(*Strings).Dict
	vals := d.Values()
	if len(vals) != d.Len() {
		t.Errorf("Values length %d != Len %d", len(vals), d.Len())
	}
	b := NewTableBuilder("t", Schema{{Name: "a", Type: Int64}})
	if b.NumRows() != 0 {
		t.Error("fresh builder has rows")
	}
	b.Int(0, 1)
	b.EndRow()
	if b.NumRows() != 1 {
		t.Error("NumRows after one row")
	}
}

func TestSetDictPanicsOnNonString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetDict on int column did not panic")
		}
	}()
	b := NewTableBuilder("t", Schema{{Name: "a", Type: Int64}})
	b.SetDict(0, NewDict())
}

func TestGrowAllTypes(t *testing.T) {
	schema := Schema{
		{Name: "a", Type: Int64}, {Name: "b", Type: Float64},
		{Name: "c", Type: Date}, {Name: "d", Type: String}, {Name: "e", Type: Bool},
	}
	b := NewTableBuilder("t", schema)
	b.Grow(100)
	b.Grow(100) // idempotent on pre-allocated builders
	b.Int(0, 1)
	b.Float(1, 2)
	b.Date(2, 3)
	b.Str(3, "x")
	b.Bool(4, true)
	b.EndRow()
	if b.Build().NumRows() != 1 {
		t.Error("Grow broke appends")
	}
}

func TestConcatAllTypes(t *testing.T) {
	mk := func(lo int) *Table {
		b := NewTableBuilder("t", Schema{
			{Name: "i", Type: Int64}, {Name: "f", Type: Float64},
			{Name: "d", Type: Date}, {Name: "bo", Type: Bool},
		})
		for i := lo; i < lo+3; i++ {
			b.Int(0, int64(i))
			b.Float(1, float64(i))
			b.Date(2, int32(i))
			b.Bool(3, i%2 == 0)
			b.EndRow()
		}
		return b.Build()
	}
	got, err := Concat(mk(0), mk(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 6 {
		t.Fatalf("concat rows = %d", got.NumRows())
	}
	if got.MustCol("i").(*Int64s).V[3] != 10 || got.MustCol("d").(*Dates).V[5] != 12 {
		t.Error("concat values wrong")
	}
	// Field-name mismatch.
	other := NewTableBuilder("o", Schema{
		{Name: "x", Type: Int64}, {Name: "f", Type: Float64},
		{Name: "d", Type: Date}, {Name: "bo", Type: Bool},
	}).Build()
	if _, err := Concat(mk(0), other); err == nil {
		t.Error("field-name mismatch accepted")
	}
}

// Named for the int64 encodings Concat once mixed; it keeps the dense case,
// with an empty input and values wider than 32 bits.
func TestConcatEncodedInt64Columns(t *testing.T) {
	mk := func(c Column) *Table {
		return MustNewTable("t", Schema{{Name: "k", Type: Int64}}, []Column{c})
	}
	a := []int64{5, 5, 5, 9}
	b := []int64{0, 1, 2, 3}
	c := []int64{1 << 40, 1 << 40, 1<<40 + 1}
	got, err := Concat(mk(&Int64s{V: a}), mk(&Int64s{V: b}), mk(&Int64s{V: nil}), mk(&Int64s{V: c}))
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]int64{}, a...), b...), c...)
	if ok, why := ColumnsIdentical(got.Cols[0], &Int64s{V: want}); !ok {
		t.Fatalf("concat of int64 columns: %s", why)
	}
}
