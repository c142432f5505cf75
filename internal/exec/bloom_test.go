package exec

import (
	"math/rand"
	"testing"
)

// probeKeysFor derives a probe side over the same key space as build:
// roughly half hits, half misses, with heavy duplication.
func probeKeysFor(build []int64, n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		if rng.Intn(2) == 0 && len(build) > 0 {
			out[i] = build[rng.Intn(len(build))]
		} else {
			out[i] = rng.Int63()
		}
	}
	return out
}

// TestBloomNoFalseNegatives: every inserted key must pass MayContain,
// and FilterKeys must keep every row whose key was inserted — the
// property that makes the pre-filter output-invisible.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 45)
	}
	var ctr Counters
	b := NewBloom(keys, &ctr)
	for _, k := range keys {
		if !b.MayContain(k) {
			t.Fatalf("false negative for inserted key %d", k)
		}
	}

	probe := probeKeysFor(keys, 20000, 31)
	inBuild := map[int64]bool{}
	for _, k := range keys {
		inBuild[k] = true
	}
	sel := must(b.FilterKeys(probe, 4, 1024, &ctr))
	kept := map[int32]bool{}
	prev := int32(-1)
	for _, r := range sel {
		if r <= prev {
			t.Fatalf("FilterKeys selection not ascending: %d after %d", r, prev)
		}
		prev = r
		kept[r] = true
	}
	for i, k := range probe {
		if inBuild[k] && !kept[int32(i)] {
			t.Fatalf("FilterKeys dropped matching row %d (key %d)", i, k)
		}
	}
}

// TestBloomFilterPrunes checks the filter actually rejects a decent
// fraction of misses — it must prune, not merely pass everything.
func TestBloomFilterPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	var ctr Counters
	b := NewBloom(keys, &ctr)
	misses := make([]int64, 20000)
	for i := range misses {
		misses[i] = -rng.Int63() - 1 // disjoint from build keys (all >= 0)
	}
	sel := must(b.FilterKeys(misses, 1, 1024, &ctr))
	// ~10 bits/key, 2 probes: false positive rate should be far below
	// 20%; fail only on gross breakage.
	if len(sel) > len(misses)/5 {
		t.Fatalf("bloom kept %d of %d misses — not pruning", len(sel), len(misses))
	}
}
