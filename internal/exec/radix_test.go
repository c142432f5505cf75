package exec

import (
	"math/rand"
	"testing"
)

// must unwraps a (value, error) pair from the now-fallible parallel
// kernels; outside cancellation these calls never fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// must2 is must for the two-vector inner-join result.
func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

// radixKeySets returns the key distributions the partitioned paths must
// handle: duplicate-heavy (few distinct keys), skewed (one hot key plus
// a wide tail), sequential (the adversary for weak hash finalizers), and
// uniform random.
func radixKeySets(n int) map[string][]int64 {
	sets := map[string][]int64{}

	rng := rand.New(rand.NewSource(11))
	dup := make([]int64, n)
	for i := range dup {
		dup[i] = rng.Int63n(64)
	}
	sets["dup-heavy"] = dup

	// 90% of rows cluster on 1024 hot keys, the rest spread wide — the
	// hot set keeps duplicate chains long without making the inner-join
	// cross product quadratic.
	rng = rand.New(rand.NewSource(12))
	skew := make([]int64, n)
	for i := range skew {
		if rng.Intn(10) < 9 {
			skew[i] = rng.Int63n(1 << 10)
		} else {
			skew[i] = rng.Int63n(1 << 40)
		}
	}
	sets["skewed"] = skew

	seq := make([]int64, n)
	for i := range seq {
		seq[i] = int64(i)
	}
	sets["sequential"] = seq

	rng = rand.New(rand.NewSource(13))
	uni := make([]int64, n)
	for i := range uni {
		uni[i] = rng.Int63()
	}
	sets["uniform"] = uni
	return sets
}

// TestRadixPartitionKeysInvariants checks, for every distribution and a
// bit count forcing two passes: every input row appears exactly once,
// every key sits in the partition its hash names, rows are ascending
// within each partition (the scatter is stable), and offsets tile the
// input.
func TestRadixPartitionKeysInvariants(t *testing.T) {
	const n = 20000
	for name, keys := range radixKeySets(n) {
		for _, bits := range []uint{0, 4, RadixBitsPerPass + 2} {
			var ctr Counters
			rp := must(RadixPartitionKeys(keys, bits, 4, 1024, &ctr))
			if got, want := rp.NumPartitions(), 1<<bits; got != want {
				t.Fatalf("%s bits=%d: NumPartitions = %d, want %d", name, bits, got, want)
			}
			if rp.Off[0] != 0 || int(rp.Off[rp.NumPartitions()]) != n {
				t.Fatalf("%s bits=%d: offsets do not tile input: first=%d last=%d",
					name, bits, rp.Off[0], rp.Off[rp.NumPartitions()])
			}
			seen := make([]bool, n)
			for p := 0; p < rp.NumPartitions(); p++ {
				lo, hi := int(rp.Off[p]), int(rp.Off[p+1])
				if hi < lo {
					t.Fatalf("%s bits=%d: partition %d has negative extent", name, bits, p)
				}
				prev := int32(-1)
				for i := lo; i < hi; i++ {
					r := rp.Rows[i]
					if seen[r] {
						t.Fatalf("%s bits=%d: row %d appears twice", name, bits, r)
					}
					seen[r] = true
					if rp.Keys[i] != keys[r] {
						t.Fatalf("%s bits=%d: partitioned key %d != keys[%d]=%d",
							name, bits, rp.Keys[i], r, keys[r])
					}
					if bits > 0 && RadixOf(rp.Keys[i], bits) != p {
						t.Fatalf("%s bits=%d: key %d in partition %d, RadixOf says %d",
							name, bits, rp.Keys[i], p, RadixOf(rp.Keys[i], bits))
					}
					if r <= prev {
						t.Fatalf("%s bits=%d: partition %d rows not ascending (%d after %d)",
							name, bits, p, r, prev)
					}
					prev = r
				}
			}
			for r, ok := range seen {
				if !ok {
					t.Fatalf("%s bits=%d: row %d missing", name, bits, r)
				}
			}
			if bits > 0 && ctr.PartitionBytes == 0 {
				t.Fatalf("%s bits=%d: partition pass charged no PartitionBytes", name, bits)
			}
		}
	}
}

// TestRadixPartitionKeysWorkerIndependent pins the determinism contract:
// the partitioned layout is byte-identical at every worker count.
func TestRadixPartitionKeysWorkerIndependent(t *testing.T) {
	const n = 30000
	for name, keys := range radixKeySets(n) {
		var base *RadixPartitions
		for _, w := range []int{1, 2, 4, 8} {
			var ctr Counters
			rp := must(RadixPartitionKeys(keys, RadixBitsPerPass+3, w, 777, &ctr))
			if base == nil {
				base = rp
				continue
			}
			for i := range base.Keys {
				if base.Keys[i] != rp.Keys[i] || base.Rows[i] != rp.Rows[i] {
					t.Fatalf("%s: workers=%d diverges at %d: (%d,%d) vs (%d,%d)",
						name, w, i, base.Keys[i], base.Rows[i], rp.Keys[i], rp.Rows[i])
				}
			}
			for i := range base.Off {
				if base.Off[i] != rp.Off[i] {
					t.Fatalf("%s: workers=%d offset %d diverges", name, w, i)
				}
			}
		}
	}
}

// TestRadixPartitionKeysDoesNotMutateInput guards the ping-pong buffer
// logic: multi-pass partitioning must never scatter into the caller's
// slices.
func TestRadixPartitionKeysDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	orig := append([]int64(nil), keys...)
	for _, bits := range []uint{RadixBitsPerPass - 1, RadixBitsPerPass, RadixBitsPerPass + 1, 2 * RadixBitsPerPass} {
		var ctr Counters
		must(RadixPartitionKeys(keys, bits, 4, 512, &ctr))
		for i := range keys {
			if keys[i] != orig[i] {
				t.Fatalf("bits=%d: input keys[%d] mutated", bits, i)
			}
		}
	}
}
