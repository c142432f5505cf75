package exec

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// TestHashKeyDistribution feeds the finalizer the adversarial key shapes
// TPC-H actually produces — sequential surrogate keys and keys with all
// entropy in high bits — and requires near-uniform bucket spread. The
// pre-Fibonacci finalizer (a single xor-shift) failed the aligned set
// catastrophically.
func TestHashKeyDistribution(t *testing.T) {
	const n = 1 << 14
	capacity := nextPow2(n * 2)
	shift := uint(64 - log2(capacity))

	sets := map[string][]int64{}
	seq := make([]int64, n)
	for i := range seq {
		seq[i] = int64(i)
	}
	sets["sequential"] = seq

	aligned := make([]int64, n)
	for i := range aligned {
		aligned[i] = int64(i) << 20 // low 20 bits carry no entropy
	}
	sets["aligned"] = aligned

	strided := make([]int64, n)
	for i := range strided {
		strided[i] = int64(i) * 7919 // large prime stride
	}
	sets["strided"] = strided

	rng := rand.New(rand.NewSource(17))
	skew := make([]int64, n)
	for i := range skew {
		skew[i] = rng.Int63n(1<<16) * (1 << 30)
	}
	sets["skewed-sparse"] = skew

	for name, keys := range sets {
		counts := make([]int, capacity)
		for _, k := range keys {
			counts[hashKey(k, shift)]++
		}
		maxLoad, occupied := 0, 0
		for _, c := range counts {
			if c > 0 {
				occupied++
			}
			if c > maxLoad {
				maxLoad = c
			}
		}
		// At load factor 0.5 a uniform hash keeps the longest bucket in
		// the low single digits (coupon-collector bound ~ln n / ln ln n);
		// 12 leaves slack while still failing any structured collapse.
		if maxLoad > 12 {
			t.Errorf("%s: max bucket load %d — finalizer is collapsing structure", name, maxLoad)
		}
		// Uniform occupancy at load 0.5 is 1-e^-0.5 ≈ 39% of buckets.
		if occupied < capacity/3 {
			t.Errorf("%s: only %d/%d buckets occupied", name, occupied, capacity)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{-5, 16},
		{0, 16},
		{1, 16},
		{16, 16},
		{17, 32},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1 << 21},
	}
	for _, c := range cases {
		if got := nextPow2(c.in); got != c.want {
			t.Errorf("nextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// Huge n must clamp to the largest representable power of two
	// (1<<62 with a 64-bit int, 1<<30 with a 32-bit one) instead of
	// overflowing to a negative (or zero) capacity.
	const maxPow2 = 1 << (bits.UintSize - 2)
	if got := nextPow2(maxPow2); got != maxPow2 {
		t.Errorf("nextPow2(%d) = %d, want itself", maxPow2, got)
	}
	if got := nextPow2(maxPow2 + 1); got != maxPow2 {
		t.Errorf("nextPow2(%d+1) = %d, want clamp to %d", maxPow2, got, maxPow2)
	}
	if got := nextPow2(maxPow2 - 1); got != maxPow2 {
		t.Errorf("nextPow2(%d-1) = %d, want %d", maxPow2, got, maxPow2)
	}
}

// TestInnerJoinChunkedEmit drives JoinTable.InnerJoin across multiple
// emit chunks (probe side far beyond joinEmitChunkRows) and checks the
// assembled output against a nested-loop oracle, plus the copy
// accounting for the chunk-assembly pass.
func TestInnerJoinChunkedEmit(t *testing.T) {
	build := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	const nProbe = joinEmitChunkRows*2 + 1234
	rng := rand.New(rand.NewSource(8))
	probe := make([]int64, nProbe)
	for i := range probe {
		probe[i] = rng.Int63n(11)
	}

	var ctr Counters
	jt := BuildJoinTable(build, &ctr)
	before := ctr.SeqBytes
	bi, pi := must2(jt.InnerJoin(probe, 1, 0, &ctr))

	// Oracle: probe rows ascending; per probe, duplicates in descending
	// build-row order (chained inserts prepend).
	var wantB, wantP []int32
	for p, k := range probe {
		for b := len(build) - 1; b >= 0; b-- {
			if build[b] == k {
				wantB = append(wantB, int32(b))
				wantP = append(wantP, int32(p))
			}
		}
	}
	if !int32sEqual(bi, wantB) || !int32sEqual(pi, wantP) {
		t.Fatalf("chunked InnerJoin diverges from oracle (%d vs %d pairs)", len(bi), len(wantB))
	}
	if len(bi) <= joinEmitChunkRows {
		t.Fatalf("test did not cross the chunk boundary (%d pairs)", len(bi))
	}
	// Multi-chunk assembly copies the result once; the copy is charged.
	if copied := ctr.SeqBytes - before; copied < int64(len(bi))*8 {
		t.Errorf("chunk assembly charged %d SeqBytes, want >= %d", copied, int64(len(bi))*8)
	}
}

// TestInnerJoinSingleChunkNoCopy: outputs that fit one chunk must not
// charge an assembly copy.
func TestInnerJoinSingleChunkNoCopy(t *testing.T) {
	build := []int64{1, 2, 3}
	probe := []int64{2, 3, 4}
	var ctr Counters
	jt := BuildJoinTable(build, &ctr)
	before := ctr.SeqBytes
	bi, _ := must2(jt.InnerJoin(probe, 1, 0, &ctr))
	if len(bi) != 2 {
		t.Fatalf("got %d pairs, want 2", len(bi))
	}
	if ctr.SeqBytes != before {
		t.Errorf("single-chunk join charged %d copy bytes", ctr.SeqBytes-before)
	}
}

// TestConcatMatchesOverflow: the chained emit path learns its output
// size only as chunks pile up; assembling more pairs than int32 row ids
// address must fail before the result is allocated. The chunks alias one
// buffer, so the test itself allocates nothing of that size.
func TestConcatMatchesOverflow(t *testing.T) {
	chunk := make([]int32, joinEmitChunkRows)
	chunks := make([][]int32, math.MaxInt32/joinEmitChunkRows+1)
	for i := range chunks {
		chunks[i] = chunk
	}
	_, err := concatMatches(chunks)
	var over *JoinOverflowError
	if !errors.As(err, &over) || over.Matches != int64(len(chunks))*joinEmitChunkRows {
		t.Fatalf("err = %v, want *JoinOverflowError for %d pairs", err, int64(len(chunks))*joinEmitChunkRows)
	}
}
