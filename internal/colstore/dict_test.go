package colstore

import (
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzDict drives Add/Lookup/Value against a map + slice oracle. text
// supplies the values (split on ','; the empty string included), and
// each op byte picks one: op&3 == 0 adds it, 1 looks it up, 2 adds to a
// Clone (the original must not change), 3 adds a fresh distinct value so
// long runs cross the index's growth boundaries.
func FuzzDict(f *testing.F) {
	f.Add("", []byte{0, 0, 1, 2})
	f.Add("a,b,a,,c", []byte{0, 4, 8, 12, 16, 1, 5, 9, 13, 2, 6})
	f.Add(strings.Repeat("long value ", 40)+",x,", []byte{0, 4, 0, 8, 1, 5, 9, 2})
	growth := make([]byte, 300)
	for i := range growth {
		growth[i] = byte(i<<2 | 3)
	}
	f.Add("g,h", growth)
	f.Fuzz(func(t *testing.T, text string, ops []byte) {
		vals := strings.Split(text, ",")
		d := NewDict()
		var want []string
		index := map[string]int32{}
		for i, op := range ops {
			s := vals[int(op>>2)%len(vals)]
			switch op & 3 {
			case 3:
				s += "#" + strconv.Itoa(i)
				fallthrough
			case 0:
				c, ok := index[s]
				if !ok {
					c = int32(len(want))
					want = append(want, s)
					index[s] = c
				}
				if got := d.Add(s); got != c {
					t.Fatalf("Add(%q) = %d, want %d", s, got, c)
				}
			case 1:
				c, ok := index[s]
				if got, gotOK := d.Lookup(s); got != c || gotOK != ok {
					t.Fatalf("Lookup(%q) = %d,%v, want %d,%v", s, got, gotOK, c, ok)
				}
			case 2:
				cl := d.Clone()
				extra := s + "\x00clone"
				wantClone := want
				if _, ok := index[extra]; !ok {
					wantClone = append(want[:len(want):len(want)], extra)
				}
				cl.Add(extra)
				checkDict(t, cl, wantClone)
			}
			checkDict(t, d, want)
		}
	})
}

// checkDict requires d to hold exactly want, in code order.
func checkDict(t *testing.T, d *Dict, want []string) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(want))
	}
	var size int64
	for c, s := range want {
		if got := d.Value(int32(c)); got != s {
			t.Fatalf("Value(%d) = %q, want %q", c, got, s)
		}
		if got, ok := d.Lookup(s); !ok || got != int32(c) {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", s, got, ok, c)
		}
		size += int64(len(s)) + 16
	}
	if got := d.SizeBytes(); got != size {
		t.Fatalf("SizeBytes = %d, want %d", got, size)
	}
	if got := d.Values(); !slices.Equal(got, want) {
		t.Fatalf("Values = %q, want %q", got, want)
	}
	if got, ordered := d.CodeOrdered(), sort.StringsAreSorted(want); got != ordered {
		t.Fatalf("CodeOrdered = %v, want %v", got, ordered)
	}
}

func TestDictNoAllocs(t *testing.T) {
	d := NewDict()
	for i := 0; i < 1000; i++ {
		d.Add("value " + strconv.Itoa(i))
	}
	s := "value 517"
	for name, fn := range map[string]func(){
		"Lookup":       func() { d.Lookup(s) },
		"Lookup/miss":  func() { d.Lookup("absent") },
		"Value":        func() { _ = d.Value(517) },
		"Add/existing": func() { d.Add(s) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
}

// TestDictHoldsNoPerValuePointers guards the dictionary's point: every
// field is a slice of a pointer-free element type, so a garbage
// collection marks a fixed number of slices however many values there
// are.
func TestDictHoldsNoPerValuePointers(t *testing.T) {
	ty := reflect.TypeOf(Dict{})
	for i := 0; i < ty.NumField(); i++ {
		f := ty.Field(i)
		if f.Type.Kind() != reflect.Slice || !pointerFree(f.Type.Elem()) {
			t.Errorf("Dict.%s is %s, want a slice of a pointer-free type", f.Name, f.Type)
		}
	}
}

func pointerFree(ty reflect.Type) bool {
	switch ty.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return pointerFree(ty.Elem())
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			if !pointerFree(ty.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
