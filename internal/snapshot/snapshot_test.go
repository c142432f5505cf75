package snapshot

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/tpch"
)

func sampleTable() *colstore.Table {
	b := colstore.NewTableBuilder("sample", colstore.Schema{
		{Name: "i", Type: colstore.Int64},
		{Name: "f", Type: colstore.Float64},
		{Name: "d", Type: colstore.Date},
		{Name: "s", Type: colstore.String},
		{Name: "bo", Type: colstore.Bool},
	})
	vals := []string{"alpha", "beta", "", "gamma"}
	for i := 0; i < 100; i++ {
		b.Int(0, int64(i)*(-1000000007))
		b.Float(1, float64(i)/7)
		b.Date(2, int32(i-50))
		b.Str(3, vals[i%len(vals)])
		b.Bool(4, i%3 == 0)
		b.EndRow()
	}
	return b.Build()
}

func TestTableRoundTrip(t *testing.T) {
	orig := sampleTable()
	var buf bytes.Buffer
	if err := WriteTable(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.NumRows() != orig.NumRows() || got.NumCols() != orig.NumCols() {
		t.Fatalf("shape mismatch: %s %dx%d", got.Name, got.NumRows(), got.NumCols())
	}
	for c := 0; c < orig.NumCols(); c++ {
		if got.Schema[c] != orig.Schema[c] {
			t.Fatalf("schema[%d] = %v, want %v", c, got.Schema[c], orig.Schema[c])
		}
	}
	for r := 0; r < orig.NumRows(); r++ {
		if got.MustCol("i").(*colstore.Int64s).V[r] != orig.MustCol("i").(*colstore.Int64s).V[r] ||
			got.MustCol("f").(*colstore.Float64s).V[r] != orig.MustCol("f").(*colstore.Float64s).V[r] ||
			got.MustCol("d").(*colstore.Dates).V[r] != orig.MustCol("d").(*colstore.Dates).V[r] ||
			got.MustCol("s").(*colstore.Strings).Value(r) != orig.MustCol("s").(*colstore.Strings).Value(r) ||
			got.MustCol("bo").(*colstore.Bools).V[r] != orig.MustCol("bo").(*colstore.Bools).V[r] {
			t.Fatalf("row %d differs", r)
		}
	}
}

func TestSpecialFloatsSurvive(t *testing.T) {
	b := colstore.NewTableBuilder("t", colstore.Schema{{Name: "f", Type: colstore.Float64}})
	for _, v := range []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), -0.0, 1e-300} {
		b.Float(0, v)
		b.EndRow()
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v := got.MustCol("f").(*colstore.Float64s).V
	if !math.IsInf(v[1], 1) || !math.IsInf(v[2], -1) || !math.IsNaN(v[3]) {
		t.Errorf("special floats lost: %v", v)
	}
}

func TestCorruptionDetection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable(&buf, sampleTable()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xFF
	if _, err := ReadTable(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if _, err := ReadTable(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncation anywhere must error, not panic.
	for _, cut := range []int{3, 10, len(full) / 2, len(full) - 1} {
		if _, err := ReadTable(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Empty input.
	if _, err := ReadTable(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestRejectsDuplicateDictionaryValue: a dictionary that repeats a value
// would shift every later code by one, even when every code is in range.
func TestRejectsDuplicateDictionaryValue(t *testing.T) {
	d := colstore.NewDict()
	codes := []int32{d.Add("alpha"), d.Add("gamma"), d.Add("alpha")}
	d.Add("delta") // in the dictionary, used by no row
	tbl, err := colstore.NewTable("dup", colstore.Schema{{Name: "s", Type: colstore.String}},
		[]colstore.Column{&colstore.Strings{Codes: codes, Dict: d}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTable(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("intact table: %v", err)
	}
	bad := bytes.Replace(buf.Bytes(), []byte("delta"), []byte("alpha"), 1)
	if _, err := ReadTable(bytes.NewReader(bad)); err == nil {
		t.Error("dictionary with a repeated value accepted")
	}
}

func TestDatasetSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	d := tpch.Generate(tpch.Config{SF: 0.002, Seed: 77})
	if err := SaveDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.SF != 0.002 || got.Config.Seed != 77 {
		t.Errorf("manifest round trip: %+v", got.Config)
	}
	for _, name := range tpch.TableNames {
		a, b := d.Tables[name], got.Tables[name]
		if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
			t.Fatalf("%s: shape mismatch", name)
		}
	}
	// Spot-check lineitem content.
	a := d.Tables["lineitem"].MustCol("l_extendedprice").(*colstore.Float64s).V
	b := got.Tables["lineitem"].MustCol("l_extendedprice").(*colstore.Float64s).V
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lineitem row %d differs", i)
		}
	}
	// Loading a missing directory errors.
	if _, err := LoadDataset(filepath.Join(dir, "nope")); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestEmptyTableRoundTrip(t *testing.T) {
	empty := colstore.NewTableBuilder("e", colstore.Schema{
		{Name: "s", Type: colstore.String},
		{Name: "i", Type: colstore.Int64},
	}).Build()
	var buf bytes.Buffer
	if err := WriteTable(&buf, empty); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil || got.NumRows() != 0 || got.NumCols() != 2 {
		t.Fatalf("empty round trip: %v", err)
	}
}
