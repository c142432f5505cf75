package colstore

import (
	"testing"
	"testing/quick"
)

func runny(vals []uint8) *Int64s {
	// Map random bytes to run-prone values.
	v := make([]int64, len(vals))
	for i, x := range vals {
		v[i] = int64(x % 5)
	}
	return &Int64s{V: v}
}

func TestRLERoundTripProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		dense := runny(vals)
		r := CompressInt64(dense)
		if r.Len() != dense.Len() {
			return false
		}
		back := r.Decode()
		for i := range dense.V {
			if back.V[i] != dense.V[i] {
				return false
			}
			if r.Value(int32(i)) != dense.V[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRLEBasics(t *testing.T) {
	dense := &Int64s{V: []int64{7, 7, 7, 3, 3, 9, 7, 7}}
	r := CompressInt64(dense)
	if r.NumRuns() != 4 {
		t.Fatalf("runs = %d, want 4", r.NumRuns())
	}
	if r.Type() != Int64 || r.Len() != 8 {
		t.Fatal("type/len wrong")
	}
	if r.SizeBytes() >= dense.SizeBytes() {
		t.Errorf("RLE (%d B) should be smaller than dense (%d B) here",
			r.SizeBytes(), dense.SizeBytes())
	}
	g := r.Gather([]int32{5, 0, 4}).(*Int64s)
	if g.V[0] != 9 || g.V[1] != 7 || g.V[2] != 3 {
		t.Errorf("gather = %v", g.V)
	}
}

func TestRLESliceProperty(t *testing.T) {
	f := func(vals []uint8, lo8, hi8 uint8) bool {
		dense := runny(vals)
		n := dense.Len()
		if n == 0 {
			return true
		}
		lo := int(lo8) % (n + 1)
		hi := int(hi8) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		r := CompressInt64(dense)
		sl := r.Slice(lo, hi).(*RLEInt64)
		if sl.Len() != hi-lo {
			return false
		}
		for i := 0; i < hi-lo; i++ {
			if sl.Value(int32(i)) != dense.V[lo+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRLEEmpty(t *testing.T) {
	r := CompressInt64(&Int64s{V: nil})
	if r.Len() != 0 {
		t.Fatal("empty compress")
	}
	if d := r.Decode(); d.Len() != 0 {
		t.Fatal("empty decode")
	}
	if s := r.Slice(0, 0); s.Len() != 0 {
		t.Fatal("empty slice")
	}
}

func TestRLEInTable(t *testing.T) {
	dense := &Int64s{V: []int64{1, 1, 2, 2, 2, 3}}
	tbl := MustNewTable("t", Schema{{Name: "k", Type: Int64}}, []Column{CompressInt64(dense)})
	if tbl.NumRows() != 6 {
		t.Fatal("RLE column not accepted by table")
	}
	g := tbl.Gather([]int32{5, 2})
	if g.MustCol("k").(*Int64s).V[0] != 3 {
		t.Fatal("gather through table wrong")
	}
	sl := tbl.Slice(1, 4)
	if sl.MustCol("k").(*RLEInt64).Value(2) != 2 {
		t.Fatal("slice through table wrong")
	}
}

func TestConcatEncodedInt64Columns(t *testing.T) {
	mk := func(c Column) *Table {
		return MustNewTable("t", Schema{{Name: "k", Type: Int64}}, []Column{c})
	}
	a := []int64{5, 5, 5, 9}
	b := []int64{0, 1, 2, 3}
	c := []int64{1 << 40, 1 << 40, 1<<40 + 1}
	got, err := Concat(mk(CompressInt64(&Int64s{V: a})), mk(&Int64s{V: b}), mk(CompressInt64(&Int64s{V: c})), mk(&Int64s{V: nil}))
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(append([]int64{}, a...), b...), c...)
	if ok, why := ColumnsIdentical(got.Cols[0], &Int64s{V: want}); !ok {
		t.Fatalf("concat across encodings: %s", why)
	}
}

func TestColumnsIdenticalAcrossEncodings(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	dense := &Int64s{V: vals}
	rle := CompressInt64(dense)
	for _, pair := range [][2]Column{{rle, dense}, {dense, rle}, {rle, CompressInt64(dense)}} {
		if ok, why := ColumnsIdentical(pair[0], pair[1]); !ok {
			t.Fatalf("%T vs %T: %s", pair[0], pair[1], why)
		}
	}
	other := &Int64s{V: []int64{3, 1, 4, 1, 5, 9, 2, 7}}
	if ok, _ := ColumnsIdentical(rle, other); ok {
		t.Fatal("differing columns reported identical")
	}
	shorter := &Int64s{V: vals[:7]}
	if ok, _ := ColumnsIdentical(rle, shorter); ok {
		t.Fatal("length mismatch reported identical")
	}
}

// FuzzRLERoundTrip checks that an RLE column reads back as the dense
// column it encodes: Decode, Value, Slice(lo, hi) and Gather(sel) all
// agree with the dense reads. A nonzero mod folds the values into
// [0, mod) so runs are common; mod 0 keeps the raw int64 boundaries.
func FuzzRLERoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), uint16(0), []byte{})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(0), uint16(1), uint16(2), []byte{1, 0, 1})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}, uint8(2), uint16(1), uint16(3), []byte{2, 2, 0})
	f.Fuzz(func(t *testing.T, raw []byte, mod uint8, lo, hi uint16, selRaw []byte) {
		vals := fuzzInt64s(raw)
		if mod != 0 {
			for i, v := range vals {
				vals[i] = int64(uint64(v) % uint64(mod))
			}
		}
		dense := &Int64s{V: vals}
		r := CompressInt64(dense)
		if r.Len() != len(vals) {
			t.Fatalf("len %d, want %d", r.Len(), len(vals))
		}
		if ok, why := ColumnsIdentical(r.Decode(), dense); !ok {
			t.Fatalf("decode mismatch: %s", why)
		}
		for i, want := range vals {
			if got := r.Value(int32(i)); got != want {
				t.Fatalf("row %d: got %d, want %d", i, got, want)
			}
		}
		n := len(vals)
		l, h := int(lo)%(n+1), int(hi)%(n+1)
		if l > h {
			l, h = h, l
		}
		if ok, why := ColumnsIdentical(r.Slice(l, h), dense.Slice(l, h)); !ok {
			t.Fatalf("slice [%d,%d) mismatch: %s", l, h, why)
		}
		if n == 0 {
			return
		}
		sel := make([]int32, len(selRaw))
		for i, b := range selRaw {
			sel[i] = int32(int(b) % n)
		}
		if ok, why := ColumnsIdentical(r.Gather(sel), dense.Gather(sel)); !ok {
			t.Fatalf("gather %v mismatch: %s", sel, why)
		}
	})
}

// fuzzInt64s reinterprets fuzz bytes as little-endian int64 values.
func fuzzInt64s(raw []byte) []int64 {
	vals := make([]int64, len(raw)/8)
	for i := range vals {
		var u uint64
		for j := 0; j < 8; j++ {
			u |= uint64(raw[i*8+j]) << (8 * j)
		}
		vals[i] = int64(u)
	}
	return vals
}
