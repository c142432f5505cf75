package colstore

import (
	"math"
	"unsafe"
)

// Dict is an order-preserving string dictionary. Codes are assigned in
// insertion order, starting at zero. A Dict may be shared by many Strings
// columns; it is not safe for concurrent mutation, but read-only use from
// multiple goroutines is safe once construction is complete.
//
// The layout is MonetDB's string heap: each value's bytes once in one
// append-only arena, indexed by an open-addressing table of codes. No
// field holds a pointer per value, so a GC cycle marks three slices.
type Dict struct {
	arena []byte   // value bytes in code order; never rewritten once appended
	ends  []uint32 // ends[c]: arena offset one past value c
	slots []int32  // code+1 per slot, 0 = empty; len is a power of two
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{} }

// Add interns s and returns its code, assigning a new code if s has not
// been seen before. It panics if the arena would pass 4 GiB.
func (d *Dict) Add(s string) int32 {
	slot, found := d.find(s)
	if found {
		return d.slots[slot] - 1
	}
	if uint64(len(d.arena))+uint64(len(s)) > math.MaxUint32 {
		panic("colstore: dictionary arena would pass 4 GiB")
	}
	c := int32(len(d.ends))
	d.arena = append(d.arena, s...)
	d.ends = append(d.ends, uint32(len(d.arena)))
	if 2*len(d.ends) > len(d.slots) {
		d.rehash(max(16, 2*len(d.slots)))
	} else {
		d.slots[slot] = c + 1
	}
	return c
}

// Lookup returns the code for s and whether s is present.
func (d *Dict) Lookup(s string) (int32, bool) {
	if slot, found := d.find(s); found {
		return d.slots[slot] - 1, true
	}
	return 0, false
}

// find returns the slot holding s, or the empty slot where s would go.
func (d *Dict) find(s string) (int, bool) {
	if len(d.slots) == 0 {
		return 0, false
	}
	mask := len(d.slots) - 1
	for i := int(strHash(s)) & mask; ; i = (i + 1) & mask {
		c := d.slots[i]
		if c == 0 {
			return i, false
		}
		if d.Value(c-1) == s {
			return i, true
		}
	}
}

// rehash rebuilds the index with n slots.
func (d *Dict) rehash(n int) {
	d.slots = make([]int32, n)
	for c := range d.ends {
		slot, _ := d.find(d.Value(int32(c)))
		d.slots[slot] = int32(c) + 1
	}
}

// strHash is 64-bit FNV-1a: the same probe sequences in every process.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Value returns the string for code c: a view of the arena, not a copy.
// The view stays valid because the arena's bytes are never rewritten.
func (d *Dict) Value(c int32) string {
	var lo uint32
	if c > 0 {
		lo = d.ends[c-1]
	}
	if lo == d.ends[c] {
		return ""
	}
	return unsafe.String(&d.arena[lo], d.ends[c]-lo)
}

// Len reports the number of distinct values.
func (d *Dict) Len() int { return len(d.ends) }

// Values returns the values in code order, in a fresh slice per call.
func (d *Dict) Values() []string {
	vals := make([]string, len(d.ends))
	for c := range vals {
		vals[c] = d.Value(int32(c))
	}
	return vals
}

// SizeBytes is the cost model's figure, not the arena's heap size: the
// value bytes plus a 16-byte string header per value.
func (d *Dict) SizeBytes() int64 {
	return int64(len(d.arena)) + 16*int64(len(d.ends))
}

// CodeOrdered reports whether codes are assigned in ascending value
// order, i.e. comparing two codes as integers is equivalent to
// comparing their string values. Sort kernels use it to skip decoding
// dictionary entries per comparison. The scan is O(distinct values) and
// takes no lock, so it is safe under concurrent read-only use.
func (d *Dict) CodeOrdered() bool {
	for c := int32(1); c < int32(len(d.ends)); c++ {
		if d.Value(c) < d.Value(c-1) {
			return false
		}
	}
	return true
}

// MatchMask returns a boolean mask over codes where mask[c] reports
// whether pred holds for the value with code c. Evaluating a string
// predicate once per distinct value instead of once per row is the main
// CPU saving of dictionary encoding.
func (d *Dict) MatchMask(pred func(string) bool) []bool {
	mask := make([]bool, len(d.ends))
	for c := range mask {
		mask[c] = pred(d.Value(int32(c)))
	}
	return mask
}

// Clone returns a deep copy of the dictionary.
func (d *Dict) Clone() *Dict {
	return &Dict{
		arena: append([]byte(nil), d.arena...),
		ends:  append([]uint32(nil), d.ends...),
		slots: append([]int32(nil), d.slots...),
	}
}
