package hardware_test

// Acceptance test for the cache-conscious execution layer: on the Pi
// profile, the join work of a join whose build side exceeds the 512 KiB
// LLC — and whose probe side is large enough that the cost model picks
// the partitioned build — must shift its simulated breakdown from
// DRAM-random-latency dominated to cache-resident accesses under the
// partitioned plan, and come out faster for it.
//
// The workload is synthetic (64 Ki build rows against a 4x probe side
// with a ~50% hit rate, the BENCH_join.json shape) rather than a TPC-H
// query: at the test scale factors every TPC-H join with an
// LLC-overflowing build has a tiny filtered probe side, for which the
// cost-model-driven planner now correctly keeps the chained table.

import (
	"fmt"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
)

type memCat map[string]*colstore.Table

func (c memCat) Table(name string) (*colstore.Table, error) {
	t, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return t, nil
}

// bigJoinCatalog builds a join whose chained table (~3 MB) overflows the
// Pi LLC and whose probe side is 4x the build — the shape where the
// partitioned build pays for its passes. Keys are spread keyStride apart:
// dense keys would take the positional layout, which hashes nothing.
func bigJoinCatalog() memCat {
	const nBuild, nProbe, keyStride = 64 << 10, 256 << 10, 64
	bb := colstore.NewTableBuilder("build", colstore.Schema{
		{Name: "b_key", Type: colstore.Int64},
	})
	for i := 0; i < nBuild; i++ {
		bb.Int(0, int64(i)*keyStride)
		bb.EndRow()
	}
	pb := colstore.NewTableBuilder("probe", colstore.Schema{
		{Name: "p_key", Type: colstore.Int64},
	})
	for i := 0; i < nProbe; i++ {
		pb.Int(0, int64(i%(2*nBuild))*keyStride) // ~50% hit rate
		pb.EndRow()
	}
	return memCat{"build": bb.Build(), "probe": pb.Build()}
}

// joinWork executes the join under the given LLC budget and returns the
// work charged by the join operators themselves: the join-partition,
// join-build, and join-probe spans, excluding scans and gathers.
func joinWork(t *testing.T, llcBytes int64) exec.Counters {
	t.Helper()
	p := &plan.HashJoin{
		Build:     &plan.Scan{Table: "build"},
		BuildKeys: []string{"b_key"},
		Probe:     &plan.Scan{Table: "probe"},
		ProbeKeys: []string{"p_key"},
		Kind:      plan.Semi,
	}
	res, err := plan.RunContext(&plan.Context{
		Cat: bigJoinCatalog(), Workers: 4, LLCBytes: llcBytes, Trace: &obs.Tracer{},
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	var join exec.Counters
	res.Root.Walk(func(sp *obs.Span, _ int) {
		if strings.HasPrefix(sp.Op, "join-") {
			join.Add(sp.SelfCounters())
		}
	})
	if join.HashProbeTuples == 0 {
		t.Fatal("no join spans found in trace")
	}
	return join
}

func TestPiBreakdownShiftsToCacheResident(t *testing.T) {
	direct := joinWork(t, -1) // partitioned paths disabled
	radix := joinWork(t, 0)   // plan.DefaultLLCBytes = Pi LLC
	m := hardware.DefaultModel()
	pi := hardware.Pi()
	bDirect := m.Explain(&pi, direct, 0)
	bRadix := m.Explain(&pi, radix, 0)

	// The direct plan's probes are DRAM random accesses: the build hash
	// table overflows the Pi LLC, and nothing is cache-resident.
	if direct.CacheRandomAccesses != 0 || direct.PartitionBytes != 0 {
		t.Fatalf("direct plan recorded partitioned-path counters: %+v", direct)
	}
	if direct.MaxHashBytes <= pi.LLCBytes {
		t.Fatalf("fixture lost its point: build table %d bytes fits LLC %d",
			direct.MaxHashBytes, pi.LLCBytes)
	}
	if bDirect.MemCacheSeconds != 0 {
		t.Fatalf("direct plan charged cache-resident time: %+v", bDirect)
	}
	if bDirect.MemRandSeconds <= bDirect.MemCacheSeconds {
		t.Fatalf("direct join work not DRAM-latency dominated: %+v", bDirect)
	}

	// The partitioned plan moves the probe work into LLC-resident
	// structures: cache-resident latency now outweighs what remains of
	// DRAM random latency, and the promise is honored (max partition
	// footprint fits the Pi LLC).
	if radix.CacheRandomAccesses == 0 || radix.PartitionBytes == 0 {
		t.Fatalf("partitioned plan recorded no partitioned-path work (cost model rejected radix?): %+v", radix)
	}
	if radix.MaxPartitionBytes > pi.LLCBytes {
		t.Fatalf("partition footprint %d overflows Pi LLC %d",
			radix.MaxPartitionBytes, pi.LLCBytes)
	}
	if bRadix.MemCacheSeconds <= bRadix.MemRandSeconds {
		t.Fatalf("partitioned join work still DRAM-latency dominated: cache %.6fs vs rand %.6fs",
			bRadix.MemCacheSeconds, bRadix.MemRandSeconds)
	}
	if bRadix.MemRandSeconds >= bDirect.MemRandSeconds {
		t.Fatalf("DRAM random latency did not shrink: %.6fs vs %.6fs",
			bRadix.MemRandSeconds, bDirect.MemRandSeconds)
	}

	// And the shift has to pay: the join's simulated Pi time must improve
	// even after the partition passes' streaming cost.
	if bRadix.Total >= bDirect.Total {
		t.Fatalf("partitioned join not faster on Pi: %.6fs vs %.6fs",
			bRadix.Total, bDirect.Total)
	}
	t.Logf("Pi big-join work: direct %.4fs (rand %.4fs) -> radix %.4fs (cache %.4fs, rand %.4fs, partition %.4fs)",
		bDirect.Total, bDirect.MemRandSeconds,
		bRadix.Total, bRadix.MemCacheSeconds, bRadix.MemRandSeconds, bRadix.PartitionSeconds)
}
