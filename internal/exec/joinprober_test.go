package exec_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"wimpi/internal/exec"
	"wimpi/internal/jointest"
)

// TestJoinProberConformance runs the JoinTable layouts — the chained one
// at every build fan-out and the positional one — through the shared
// conformance table. internal/plan runs the spill joiner, whose radix
// partitions build chained tables over one shared next array, through
// the same table, all partitions resident and some spilled.
func TestJoinProberConformance(t *testing.T) {
	impls := []jointest.Impl{{
		// The public entry: sequential where exec.Serial says so,
		// partitioned elsewhere. Its fan-out follows the worker count, and
		// with it the table footprint, so no claim on its counters; the
		// fixed fan-outs below pin the work.
		Name: "chained",
		Build: func(t *testing.T, build []int64, _, w, mr int, ctr *exec.Counters) exec.JoinProber {
			jt, err := exec.BuildJoinTableParallel(build, w, mr, ctr)
			if err != nil {
				t.Fatal(err)
			}
			if partitioned := jt.Bits() > 0; partitioned != !exec.Serial(w, len(build), mr) {
				t.Fatalf("build of %d rows at %d workers: fan-out 2^%d", len(build), w, jt.Bits())
			}
			if ctr.MergeBytes != 0 || (ctr.PartitionBytes > 0) != (jt.Bits() > 0) {
				t.Fatalf("fan-out 2^%d charged %d partitioning and %d merge bytes", jt.Bits(), ctr.PartitionBytes, ctr.MergeBytes)
			}
			return jt
		},
	}}
	for _, bits := range []uint{0, 1, 3, 6} {
		bits := bits
		impls = append(impls, jointest.Impl{
			Name: fmt.Sprintf("chained-bits%d", bits),
			Build: func(t *testing.T, build []int64, _, w, mr int, ctr *exec.Counters) exec.JoinProber {
				jt, err := exec.BuildJoinTableBits(build, bits, w, mr, ctr)
				if err != nil {
					t.Fatal(err)
				}
				return jt
			},
			// One worker probes sequentially and pays no morsel merge.
			CountersFrom: 2,
		})
	}
	impls = append(impls, jointest.Impl{
		// Only inputs whose keys span a range an array can hold; an empty
		// build is a zero-slot array.
		Name: "positional",
		Build: func(t *testing.T, build []int64, _, _, _ int, ctr *exec.Counters) exec.JoinProber {
			base, span, ok := exec.KeySpan(build, ctr)
			if !ok && len(build) > 0 || span > 1<<20 {
				t.Skipf("keys span %d values", span)
			}
			jt, err := exec.BuildPositionalJoinTable(build, base, span, ctr)
			if err != nil {
				t.Fatal(err)
			}
			return jt
		},
		CountersFrom: 2,
		// Charged per tuple like the chained table, so per-tuple metrics
		// stay comparable across the layouts.
		Check: func(t *testing.T, _ jointest.Input, ctr, chained exec.Counters) {
			if ctr.HashBuildTuples != chained.HashBuildTuples || ctr.HashProbeTuples != chained.HashProbeTuples ||
				ctr.RandomAccesses != chained.RandomAccesses || ctr.CacheRandomAccesses != 0 || ctr.PartitionBytes != 0 {
				t.Fatalf("positional charged %+v, chained %+v", ctr, chained)
			}
		},
	})
	jointest.Run(t, impls)
}

// TestJoinTableUniqueFlag: every build — sequential, partitioned at each
// fan-out, and positional — calls its keys unique exactly when a naive
// duplicate check does, on every conformance input.
func TestJoinTableUniqueFlag(t *testing.T) {
	for _, in := range jointest.Inputs() {
		seen := make(map[int64]bool, len(in.Build))
		want := true
		for _, k := range in.Build {
			want = want && !seen[k]
			seen[k] = true
		}
		var ctr exec.Counters
		builds := map[string]*exec.JoinTable{"sequential": exec.BuildJoinTable(in.Build, &ctr)}
		for _, bits := range []uint{1, 3, 6} {
			jt, err := exec.BuildJoinTableBits(in.Build, bits, 2, 1000, &ctr)
			if err != nil {
				t.Fatal(err)
			}
			builds[fmt.Sprintf("partitioned-bits%d", bits)] = jt
		}
		if base, span, ok := exec.KeySpan(in.Build, &ctr); ok && span <= 1<<20 {
			jt, err := exec.BuildPositionalJoinTable(in.Build, base, span, &ctr)
			if err != nil {
				t.Fatal(err)
			}
			builds["positional"] = jt
		}
		for name, jt := range builds {
			if jt.Unique() != want {
				t.Errorf("%s/%s: Unique = %t, want %t", in.Name, name, jt.Unique(), want)
			}
		}
	}
}

// TestPartitionedBuildRoutesByRadixOf: part p of a partitioned build
// holds exactly partition p of RadixPartitionKeys over the same keys —
// the same rows, and each key's chain in the partition's rows in
// descending order — so the in-memory build and the spill joiner
// partition alike.
func TestPartitionedBuildRoutesByRadixOf(t *testing.T) {
	for _, in := range jointest.Inputs() {
		for _, bits := range []uint{1, 3, 6} {
			var ctr exec.Counters
			jt, err := exec.BuildJoinTableBits(in.Build, bits, 2, 1000, &ctr)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := exec.RadixPartitionKeys(in.Build, bits, 1, 0, &ctr)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < rp.NumPartitions(); p++ {
				lo, hi := rp.Off[p], rp.Off[p+1]
				if got := jt.PartRows(p); !slices.Equal(got, rp.Rows[lo:hi]) {
					t.Fatalf("%s bits=%d: part %d holds %d rows, radix partition %d", in.Name, bits, p, len(got), hi-lo)
				}
				chains := make(map[int64][]int32)
				for i := hi - 1; i >= lo; i-- {
					chains[rp.Keys[i]] = append(chains[rp.Keys[i]], rp.Rows[i])
				}
				for k, want := range chains {
					var got []int32
					for r := jt.Lookup(k); r >= 0; r = jt.Next(r) {
						got = append(got, r)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s bits=%d: key %d chains rows %v, want %v", in.Name, bits, k, got, want)
					}
				}
			}
		}
	}
}

// TestKeySpan: the range an array indexed by key − base needs, refused
// where its width does not fit an int — and computed without overflow
// across the whole int64 range.
func TestKeySpan(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []int64
		base int64
		span int
		ok   bool
	}{
		{"empty", nil, 0, 0, false},
		{"one key", []int64{-7}, -7, 1, true},
		{"all equal", []int64{5, 5, 5}, 5, 1, true},
		{"negative to positive", []int64{3, -2, 0, 9}, -2, 12, true},
		{"widest an int holds", []int64{math.MaxInt - 1, 0}, 0, math.MaxInt, true},
		{"one wider", []int64{0, math.MaxInt}, 0, 0, false},
		{"all of int64", []int64{math.MinInt64, math.MaxInt64}, 0, 0, false},
		{"upper half of int64", []int64{math.MaxInt64, 0}, 0, 0, false},
	} {
		var ctr exec.Counters
		base, span, ok := exec.KeySpan(tc.keys, &ctr)
		if base != tc.base || span != tc.span || ok != tc.ok {
			t.Errorf("%s: KeySpan = (%d, %d, %t), want (%d, %d, %t)", tc.name, base, span, ok, tc.base, tc.span, tc.ok)
		}
		if ctr.SeqBytes != int64(len(tc.keys))*8 {
			t.Errorf("%s: charged %d sequential bytes for %d keys", tc.name, ctr.SeqBytes, len(tc.keys))
		}
	}
}

// TestInnerJoinOverflowCountedFirst: in both JoinTable layouts an inner
// join beyond int32 row ids fails with the exact pair count before it
// emits (10^10 pairs would need 80 GB), while one whose sides multiply
// past the bound but whose longest chain keeps it inside runs.
func TestInnerJoinOverflowCountedFirst(t *testing.T) {
	const n = 100_000
	constant, unique := make([]int64, n), make([]int64, n)
	for i := range unique {
		constant[i], unique[i] = 7, int64(i)
	}
	build := map[string]func([]int64, *exec.Counters) *exec.JoinTable{
		"chained": exec.BuildJoinTable,
		"positional": func(keys []int64, ctr *exec.Counters) *exec.JoinTable {
			base, span, _ := exec.KeySpan(keys, ctr)
			jt, err := exec.BuildPositionalJoinTable(keys, base, span, ctr)
			if err != nil {
				t.Fatal(err)
			}
			return jt
		},
	}
	for name, b := range build {
		var ctr exec.Counters
		_, _, err := b(constant, &ctr).InnerJoin(constant, 2, 1000, &ctr)
		var over *exec.JoinOverflowError
		if !errors.As(err, &over) || over.Matches != n*n {
			t.Errorf("%s: err = %v, want *JoinOverflowError{Matches: %d}", name, err, int64(n*n))
		}
		bi, _, err := b(unique, &ctr).InnerJoin(unique, 2, 1000, &ctr)
		if err != nil || len(bi) != n {
			t.Errorf("%s: unique keys: %d pairs, err %v", name, len(bi), err)
		}
	}
}

// TestMatchOffsetsOverflow: three probe rows of 2^30 matches each do not
// fit int32 row ids; the prefix sum must say so instead of wrapping into
// a garbage output size.
func TestMatchOffsetsOverflow(t *testing.T) {
	var ctr exec.Counters
	_, _, err := exec.MatchOffsets([]int32{1 << 30, 1 << 30, 1 << 30}, &ctr)
	var over *exec.JoinOverflowError
	if !errors.As(err, &over) || over.Matches != 3<<30 {
		t.Fatalf("err = %v, want *JoinOverflowError{Matches: %d}", err, int64(3)<<30)
	}
	offs, total, err := exec.MatchOffsets([]int32{1 << 30, 0, 1<<30 - 1}, &ctr)
	if err != nil || total != 1<<31-1 || offs[0] != 0 || offs[1] != 1<<30 || offs[2] != 1<<30 {
		t.Fatalf("offs = %v, total = %d, err = %v", offs, total, err)
	}
}
