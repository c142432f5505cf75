package exec_test

import (
	"errors"
	"fmt"
	"testing"

	"wimpi/internal/exec"
	"wimpi/internal/jointest"
)

// TestJoinProberConformance runs the resident JoinProber implementations
// — the chained layout at every build fan-out and the compact layout
// with and without its Bloom pre-filter — through the shared conformance
// table. internal/plan runs the spill joiner through the same table.
func TestJoinProberConformance(t *testing.T) {
	impls := []jointest.Impl{{
		// The public entry: sequential below its thresholds, partitioned
		// above them. Its fan-out follows the worker count, and with it the
		// table footprint, so no claim on its counters; the fixed fan-outs
		// below pin the work.
		Name: "chained",
		Build: func(t *testing.T, build []int64, _, w, mr int, ctr *exec.Counters) exec.JoinProber {
			jt, err := exec.BuildJoinTableParallel(build, w, mr, ctr)
			if err != nil {
				t.Fatal(err)
			}
			if partitioned := jt.Bits() > 0; partitioned != (w > 1 && len(build) >= 1<<14) {
				t.Fatalf("build of %d rows at %d workers: fan-out 2^%d", len(build), w, jt.Bits())
			}
			if (ctr.MergeBytes > 0) != (jt.Bits() > 0) {
				t.Fatalf("fan-out 2^%d charged %d partitioning bytes", jt.Bits(), ctr.MergeBytes)
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
	for _, bloom := range []bool{false, true} {
		bloom := bloom
		impls = append(impls, jointest.Impl{
			Name: fmt.Sprintf("radix-bloom=%t", bloom),
			Build: func(t *testing.T, build []int64, _, w, mr int, ctr *exec.Counters) exec.JoinProber {
				// 2 KiB partitions: a two-pass fan-out on the larger inputs.
				rt, err := exec.BuildRadixJoinTable(build, 2<<10, exec.RadixJoinConfig{Bloom: bloom}, w, mr, ctr)
				if err != nil {
					t.Fatal(err)
				}
				if len(build) > 0 && rt.NumPartitions() < 2 {
					t.Fatalf("expected a multi-partition build, got %d", rt.NumPartitions())
				}
				if rt.NumBuildRows() != len(build) {
					t.Fatalf("NumBuildRows = %d, want %d", rt.NumBuildRows(), len(build))
				}
				return rt
			},
			CountersFrom: 1,
			Check: func(t *testing.T, in jointest.Input, ctr exec.Counters) {
				if len(in.Build) > 0 && (ctr.CacheRandomAccesses == 0 || ctr.MaxPartitionBytes == 0) {
					t.Fatalf("compact layout charged no cache-resident work: %+v", ctr)
				}
				if ctr.RandomAccesses != 0 {
					t.Fatalf("compact layout charged %d DRAM random accesses", ctr.RandomAccesses)
				}
			},
		})
	}
	jointest.Run(t, impls)
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
