package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// KeysFromColumn extracts 64-bit join/group keys from a column, optionally
// through a selection vector (nil selects all rows). String columns yield
// dictionary codes, dates yield day numbers, and bools yield 0/1.
// Float columns are not valid keys.
func KeysFromColumn(col colstore.Column, sel []int32, ctr *Counters) ([]int64, error) {
	n := col.Len()
	if sel != nil {
		n = len(sel)
	}
	out := make([]int64, n)
	if err := KeysInto(out, col, sel, ctr); err != nil {
		return nil, err
	}
	return out, nil
}

// KeysInto is KeysFromColumn into a caller's buffer: dst must hold one
// key per selected row (col.Len() with a nil sel). Every encoding decodes
// straight into dst — encoded columns read only their compressed bytes
// and are charged at that footprint — so a morsel of a large column
// lands in its slot of the operator's key vector without a copy.
func KeysInto(dst []int64, col colstore.Column, sel []int32, ctr *Counters) error {
	if sel != nil {
		ops := int64(0) // per-row decode work beyond the access itself
		switch c := col.(type) {
		case *colstore.RLEInt64:
			for i, s := range sel {
				dst[i] = c.Value(s)
			}
			ops = 4 // binary search per row
		case *colstore.BitPackedInt64:
			for i, s := range sel {
				dst[i] = c.Value(s)
			}
			ops = 1
		case *colstore.FoRInt64:
			for i, s := range sel {
				dst[i] = c.Value(s)
			}
			ops = 1
		case *colstore.Int64s:
			for i, s := range sel {
				dst[i] = c.V[s]
			}
		case *colstore.Dates:
			for i, s := range sel {
				dst[i] = int64(c.V[s])
			}
		case *colstore.Strings:
			for i, s := range sel {
				dst[i] = int64(c.Codes[s])
			}
		case *colstore.Bools:
			for i, s := range sel {
				dst[i] = b2i(c.V[s])
			}
		default:
			return fmt.Errorf("exec: column type %s cannot be a key", col.Type())
		}
		ctr.RandomAccesses += int64(len(sel))
		ctr.IntOps += int64(len(sel)) * ops
		return nil
	}
	switch c := col.(type) {
	case *colstore.RLEInt64:
		for i, v := range c.Vals {
			run := dst[c.Starts[i]:c.Starts[i+1]]
			for j := range run {
				run[j] = v
			}
		}
		ctr.IntOps += int64(c.Len())
	case *colstore.BitPackedInt64:
		c.DecodeInto(dst, 0)
		ctr.IntOps += int64(c.Len())
	case *colstore.FoRInt64:
		c.Codes.DecodeInto(dst, c.Ref)
		ctr.IntOps += int64(c.Len())
	case *colstore.Int64s:
		copy(dst, c.V)
	case *colstore.Dates:
		for i, v := range c.V {
			dst[i] = int64(v)
		}
	case *colstore.Strings:
		for i, v := range c.Codes {
			dst[i] = int64(v)
		}
	case *colstore.Bools:
		for i, v := range c.V {
			dst[i] = b2i(v)
		}
	default:
		return fmt.Errorf("exec: column type %s cannot be a key", col.Type())
	}
	// Dense and encoded columns alike stream their own footprint once.
	ctr.SeqBytes += col.SizeBytes()
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// CombineKeys packs two key vectors into one, giving lo loBits low bits.
// All lo values must fit in loBits and all hi values in 63-loBits bits;
// out-of-range values return an error, preventing silent key collisions.
func CombineKeys(hi, lo []int64, loBits uint, ctr *Counters) ([]int64, error) {
	out := make([]int64, len(hi))
	if err := CombineKeysInto(out, hi, lo, loBits, ctr); err != nil {
		return nil, err
	}
	return out, nil
}

// CombineKeysInto is CombineKeys into a caller's buffer, which may be hi
// itself.
func CombineKeysInto(dst, hi, lo []int64, loBits uint, ctr *Counters) error {
	if len(hi) != len(lo) {
		return fmt.Errorf("exec: CombineKeys length mismatch: %d vs %d", len(hi), len(lo))
	}
	limitLo := int64(1) << loBits
	limitHi := int64(1) << (63 - loBits)
	for i := range hi {
		h, l := hi[i], lo[i]
		if l < 0 || l >= limitLo || h < 0 || h >= limitHi {
			// The aborted scan still compared i+1 rows; charge them so
			// error paths cost what they did.
			ctr.IntOps += int64(i+1) * 2
			return fmt.Errorf("exec: CombineKeys value out of range at %d: hi=%d lo=%d loBits=%d", i, h, l, loBits)
		}
		dst[i] = h<<loBits | l
	}
	ctr.IntOps += int64(len(hi)) * 2
	return nil
}

// SplitKey unpacks a key produced by CombineKeys.
func SplitKey(k int64, loBits uint) (hi, lo int64) {
	return k >> loBits, k & (int64(1)<<loBits - 1)
}
