// Package jointest is the conformance harness for exec.JoinProber
// implementations: one table of inputs and one set of assertions, run by
// internal/exec over the resident layouts and by internal/plan over the
// spill joiner, so "byte-identical to the chained table" means the same
// thing for every implementation.
package jointest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wimpi/internal/exec"
)

// Input is one build/probe key pair.
type Input struct {
	Name         string
	Build, Probe []int64
}

// Probe sides are long enough for every implementation to split them
// into morsels; the heavy-duplicate build side is long enough for
// exec.BuildJoinTableParallel to partition it.
const (
	nProbe       = 24_000
	nBuild       = 6_000
	nBuildDups   = 50_000
	nBuildOneKey = 10_000
)

// Inputs returns the conformance inputs, identical on every call: the
// key distributions the layouts must handle (sequential — the adversary
// for weak hash finalizers —, uniform, duplicate-heavy, one hot set plus
// a wide tail, two packed columns), the degenerate sides, and the
// degenerate partitionings: a build of one key (every match a long
// reversed duplicate run) and a build confined to the first of 16 radix
// partitions (every other partition of a compact layout is empty — for
// the spill joiner, every spilled one); and compact key ranges for the
// positional layout.
func Inputs() []Input {
	rng := rand.New(rand.NewSource(16))
	fill := func(n int, key func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = key(i)
		}
		return out
	}
	miss := func(int) int64 { return -1 - rng.Int63n(1<<40) } // build keys are all >= 0
	// halfHits draws a probe side over build's key space: about half the
	// rows hit, with repeats.
	halfHits := func(build []int64) []int64 {
		return fill(nProbe, func(i int) int64 {
			if rng.Intn(2) == 0 {
				return build[rng.Intn(len(build))]
			}
			return miss(i)
		})
	}
	unique := fill(nBuild, func(i int) int64 { return int64(i) })
	inputs := []Input{
		{Name: "unique", Build: unique},
		{Name: "uniform", Build: fill(nBuild, func(int) int64 { return rng.Int63() })},
		{Name: "heavy-dups", Build: fill(nBuildDups, func(int) int64 { return rng.Int63n(1 << 10) })},
		{Name: "skewed", Build: fill(nBuild, func(int) int64 {
			if rng.Intn(10) < 9 {
				return rng.Int63n(1 << 8)
			}
			return rng.Int63n(1 << 40)
		})},
		// Packed as plan.joinKeys packs two columns: low-order structure in
		// both halves.
		{Name: "packed-2col", Build: fill(nBuild, func(int) int64 { return rng.Int63n(64)<<31 | rng.Int63n(32) })},
	}
	for i := range inputs {
		inputs[i].Probe = halfHits(inputs[i].Build)
	}
	firstPartition := fill(nBuild, func(int) int64 {
		for {
			if k := rng.Int63n(1 << 40); exec.RadixOf(k, 4) == 0 {
				return k
			}
		}
	})
	inputs = append(inputs,
		Input{Name: "one-key", Build: fill(nBuildOneKey, func(int) int64 { return 42 }),
			// A hit is nBuildOneKey pairs: a handful of them.
			Probe: fill(nProbe, func(i int) int64 {
				if i%1000 == 7 {
					return 42
				}
				return miss(i)
			})},
		Input{Name: "one-partition", Build: firstPartition, Probe: halfHits(firstPartition)},
		Input{Name: "all-miss", Build: unique, Probe: fill(nProbe, miss)},
		Input{Name: "empty-build", Probe: fill(nProbe, miss)},
		Input{Name: "empty-probe", Build: unique},
	)
	// Compact key ranges, the positional layout's domain: below zero, with
	// holes, and probed at and just past both ends of the range and at the
	// ends of int64, where key − base wraps.
	negative := fill(nBuild, func(i int) int64 { return int64(i) - nBuild/2 })
	strided := fill(nBuild, func(i int) int64 { return 7 * int64(i) })
	const base = 1000
	edges := []int64{base - 1, base, base + nBuild - 1, base + nBuild, math.MinInt64, math.MaxInt64}
	return append(inputs,
		Input{Name: "negative-base", Build: negative, Probe: halfHits(negative)},
		Input{Name: "strided", Build: strided, Probe: fill(nProbe, func(int) int64 { return rng.Int63n(7 * nBuild) })},
		Input{Name: "edge-probes", Build: fill(nBuild, func(i int) int64 { return base + int64(i) }),
			Probe: fill(nProbe, func(i int) int64 { return edges[i%len(edges)] })},
	)
}

// Impl is one way to build a JoinProber.
type Impl struct {
	Name string
	// Build builds the prober over the build keys, charging ctr; probeRows
	// is the probe cardinality, for builders that plan with it.
	Build func(t *testing.T, build []int64, probeRows, workers, morselRows int, ctr *exec.Counters) exec.JoinProber
	// CountersFrom is the smallest worker count from which the charged
	// work must not depend on the worker count: 1 for never, 0 for no
	// claim.
	CountersFrom int
	// Check, when non-nil, asserts implementation-specific facts about the
	// counters of one build + four probes; chained holds those of the
	// sequential chained table on one worker.
	Check func(t *testing.T, in Input, ctr, chained exec.Counters)
}

// result is the output of the four join kinds.
type result struct {
	BuildIdx, ProbeIdx []int32
	Semi, Anti         []int32
	Counts             []int64
}

func probeAll(t *testing.T, jp exec.JoinProber, probe []int64, workers, morselRows int, ctr *exec.Counters) result {
	t.Helper()
	var r result
	var err error
	if r.BuildIdx, r.ProbeIdx, err = jp.InnerJoin(probe, workers, morselRows, ctr); err != nil {
		t.Fatalf("InnerJoin: %v", err)
	}
	if r.Semi, err = jp.SemiJoin(probe, workers, morselRows, ctr); err != nil {
		t.Fatalf("SemiJoin: %v", err)
	}
	if r.Anti, err = jp.AntiJoin(probe, workers, morselRows, ctr); err != nil {
		t.Fatalf("AntiJoin: %v", err)
	}
	if r.Counts, err = jp.CountPerProbe(probe, workers, morselRows, ctr); err != nil {
		t.Fatalf("CountPerProbe: %v", err)
	}
	return r
}

// Run checks every implementation, on every input and join kind at 1, 2
// and 8 workers, against the sequential chained table (which
// TestJoinAgainstNestedLoopOracle ties to a nested-loop join), and its
// charged work against itself across worker counts.
func Run(t *testing.T, impls []Impl) {
	const morselRows = 1000 // not a divisor of any input size
	for _, in := range Inputs() {
		var refCtr exec.Counters
		want := probeAll(t, exec.BuildJoinTable(in.Build, &refCtr), in.Probe, 1, morselRows, &refCtr)
		for _, im := range impls {
			var stable *exec.Counters
			for _, w := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", im.Name, in.Name, w), func(t *testing.T) {
					var ctr exec.Counters
					jp := im.Build(t, in.Build, len(in.Probe), w, morselRows, &ctr)
					got := probeAll(t, jp, in.Probe, w, morselRows, &ctr)
					switch {
					case !slices.Equal(got.BuildIdx, want.BuildIdx) || !slices.Equal(got.ProbeIdx, want.ProbeIdx):
						t.Fatalf("InnerJoin diverges (%d pairs, want %d)", len(got.BuildIdx), len(want.BuildIdx))
					case !slices.Equal(got.Semi, want.Semi):
						t.Fatal("SemiJoin diverges")
					case !slices.Equal(got.Anti, want.Anti):
						t.Fatal("AntiJoin diverges")
					case !slices.Equal(got.Counts, want.Counts):
						t.Fatal("CountPerProbe diverges")
					}
					if im.Check != nil {
						im.Check(t, in, ctr, refCtr)
					}
					if im.CountersFrom == 0 || w < im.CountersFrom {
						return
					}
					if stable == nil {
						stable = &ctr
					} else if ctr != *stable {
						t.Fatalf("charged work depends on the worker count:\n got %+v\nwant %+v", ctr, *stable)
					}
				})
			}
		}
	}
}
