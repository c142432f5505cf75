package hardware

import (
	"testing"
	"time"

	"wimpi/internal/exec"
)

func TestProfilesTableI(t *testing.T) {
	ps := Profiles()
	if len(ps) != 10 {
		t.Fatalf("got %d profiles, want 10", len(ps))
	}
	var onprem, cloud, sbc int
	for i := range ps {
		p := &ps[i]
		switch p.Category {
		case OnPremises:
			onprem++
		case Cloud:
			cloud++
		case SBC:
			sbc++
		}
		if p.TotalCores() < 4 || p.FreqGHz <= 0 || p.IntOpsPerCore <= 0 ||
			p.FpOpsPerCore <= 0 || p.MemBW1 <= 0 || p.MemBWAll < p.MemBW1 ||
			p.LLCBytes <= 0 || p.QueryOverheadSec <= 0 {
			t.Errorf("%s: implausible profile %+v", p.Name, p)
		}
	}
	if onprem != 2 || cloud != 7 || sbc != 1 {
		t.Fatalf("category counts = %d/%d/%d", onprem, cloud, sbc)
	}
	// Table I spot checks.
	pi := Pi()
	if pi.MSRPUSD != 35 || pi.TDPWatts != 5.1 || pi.Cores != 4 || pi.LLCBytes != 512*1024 {
		t.Errorf("Pi profile diverges from Table I: %+v", pi)
	}
	e5, err := ByName("op-e5")
	if err != nil || e5.MSRPUSD != 1389 || e5.TDPWatts != 95 || e5.Cores != 10 || e5.Sockets != 2 {
		t.Errorf("op-e5 profile diverges from Table I")
	}
	gold, _ := ByName("op-gold")
	if gold.MSRPUSD != 3358 || gold.TDPWatts != 165 || gold.Cores != 18 {
		t.Errorf("op-gold profile diverges from Table I")
	}
	c6g, _ := ByName("c6g.metal")
	if c6g.Cores != 64 || c6g.HourlyUSD != 2.176 {
		t.Errorf("c6g profile diverges from Table I")
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should error")
	}
	if len(OnPrem()) != 2 || len(CloudProfiles()) != 7 || len(Servers()) != 9 {
		t.Error("grouping helpers wrong")
	}
}

func TestMemBWSaturation(t *testing.T) {
	pi := Pi()
	if bw1, bw4 := pi.MemBW(1), pi.MemBW(4); bw4 > bw1*1.3 {
		t.Errorf("Pi bandwidth should saturate with one core: %g vs %g", bw1, bw4)
	}
	e5, _ := ByName("op-e5")
	if e5.MemBW(1) >= e5.MemBW(e5.TotalCores()) {
		t.Error("server bandwidth should scale with cores")
	}
	if e5.MemBW(1000) != e5.MemBWAll {
		t.Error("bandwidth must clamp at MemBWAll")
	}
}

func scanCounters(bytes int64) exec.Counters {
	return exec.Counters{
		TuplesScanned: bytes / 8,
		SeqBytes:      bytes,
		IntOps:        bytes / 8,
	}
}

func TestModelCPUvsMemoryBound(t *testing.T) {
	m := DefaultModel()
	pi := Pi()
	e5, _ := ByName("op-e5")

	// A huge sequential scan: memory-bound on the Pi.
	scan := scanCounters(512 << 20)
	bPi := m.Explain(&pi, scan, 0)
	if !bPi.MemoryBound {
		t.Errorf("512MB scan on Pi should be memory-bound: %+v", bPi)
	}
	// Compute-heavy, low-byte workload: CPU-bound everywhere.
	compute := exec.Counters{IntOps: 5e9, FloatOps: 2e9, SeqBytes: 1 << 20, TuplesScanned: 1e6}
	bC := m.Explain(&pi, compute, 0)
	if bC.MemoryBound {
		t.Errorf("compute workload on Pi should be CPU-bound: %+v", bC)
	}

	// The scan gap between Pi and op-e5 must track the bandwidth ratio;
	// the compute gap must track the compute ratio (the paper's central
	// observation: scans are where the Pi collapses).
	scanRatio := m.QueryTime(&pi, scan, 0).Seconds() / m.QueryTime(&e5, scan, 0).Seconds()
	compRatio := m.QueryTime(&pi, compute, 0).Seconds() / m.QueryTime(&e5, compute, 0).Seconds()
	if scanRatio <= compRatio {
		t.Errorf("scan ratio %.1f should exceed compute ratio %.1f", scanRatio, compRatio)
	}
	if scanRatio < 5 || scanRatio > 60 {
		t.Errorf("Pi/op-e5 scan ratio %.1f outside plausible band", scanRatio)
	}
}

func TestModelMonotonicity(t *testing.T) {
	m := DefaultModel()
	for _, p := range Profiles() {
		p := p
		small := scanCounters(64 << 20)
		big := scanCounters(256 << 20)
		if m.QueryTime(&p, small, 0) >= m.QueryTime(&p, big, 0) {
			t.Errorf("%s: more work should take longer", p.Name)
		}
		// More cores never hurt.
		if m.QueryTime(&p, big, 1) < m.QueryTime(&p, big, 0) {
			t.Errorf("%s: all cores slower than one core", p.Name)
		}
	}
}

func TestModelLLCEffect(t *testing.T) {
	m := DefaultModel()
	e5, _ := ByName("op-e5")
	probes := exec.Counters{RandomAccesses: 1e8, TuplesScanned: 1e8, HashProbeTuples: 1e8}
	inLLC := probes
	inLLC.MaxHashBytes = 1 << 20 // 1 MB: fits 25 MB LLC
	inDRAM := probes
	inDRAM.MaxHashBytes = 1 << 30 // 1 GB: misses
	if m.QueryTime(&e5, inLLC, 0) >= m.QueryTime(&e5, inDRAM, 0) {
		t.Error("LLC-resident hash table should be faster than DRAM-resident")
	}
}

func TestModelSwapCliff(t *testing.T) {
	m := DefaultModel()
	pi := Pi()
	fits := scanCounters(200 << 20)
	fits.PeakLiveBytes = 800 << 20
	thrash := fits
	thrash.PeakLiveBytes = 2500 << 20 // 2.5 GB working set on a 1 GB node
	tFit := m.QueryTime(&pi, fits, 0)
	tThrash := m.QueryTime(&pi, thrash, 0)
	if tThrash < 10*tFit {
		t.Errorf("swap cliff too shallow: %v vs %v", tFit, tThrash)
	}
	b := m.Explain(&pi, thrash, 0)
	if b.SwapSeconds <= 0 || !b.MemoryBound {
		t.Errorf("thrash breakdown wrong: %+v", b)
	}
	// Servers with large RAM are unaffected.
	e5, _ := ByName("op-e5")
	if m.Explain(&e5, thrash, 0).SwapSeconds != 0 {
		t.Error("server should not swap at 2.5 GB")
	}
}

func TestModelBreakdownConsistency(t *testing.T) {
	m := DefaultModel()
	pi := Pi()
	c := exec.Counters{
		IntOps: 1e8, FloatOps: 1e7, SeqBytes: 1 << 26,
		RandomAccesses: 1e6, HashProbeTuples: 1e6, AggUpdates: 1e6,
		TuplesScanned: 1e7,
	}
	b := m.Explain(&pi, c, 0)
	if b.Total <= 0 {
		t.Fatal("total not positive")
	}
	want := b.CPUSeconds + b.MemRandSeconds
	if b.MemSeqSeconds > want {
		want = b.MemSeqSeconds
	}
	want += b.SwapSeconds + b.OverheadSeconds
	if diff := b.Total - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("total %g != recomposed %g", b.Total, want)
	}
	if m.QueryTime(&pi, c, 0) != time.Duration(b.Total*float64(time.Second)) {
		t.Error("QueryTime disagrees with Explain")
	}
}

// TestModelCacheResidentAccounting pins the pricing of the partitioned
// paths' counters: CacheRandomAccesses run at LLC latency while the
// largest partition structure fits the profile LLC, and degrade to DRAM
// latency when it overflows (the cache promise is void).
func TestModelCacheResidentAccounting(t *testing.T) {
	m := DefaultModel()
	pi := Pi()
	base := exec.Counters{CacheRandomAccesses: 1e8, TuplesScanned: 1e8}

	resident := base
	resident.MaxPartitionBytes = 256 << 10 // fits the Pi's 512 KiB LLC
	overflow := base
	overflow.MaxPartitionBytes = 4 << 20 // does not

	bRes := m.Explain(&pi, resident, 0)
	bOver := m.Explain(&pi, overflow, 0)
	if bRes.MemCacheSeconds >= bOver.MemCacheSeconds {
		t.Errorf("LLC-resident partitions should be cheaper: %g vs %g",
			bRes.MemCacheSeconds, bOver.MemCacheSeconds)
	}
	wantRatio := pi.DRAMLatency / pi.LLCLatency
	if ratio := bOver.MemCacheSeconds / bRes.MemCacheSeconds; ratio < wantRatio*0.99 || ratio > wantRatio*1.01 {
		t.Errorf("overflow penalty ratio %g, want DRAM/LLC latency ratio %g", ratio, wantRatio)
	}
	if bRes.Dominant() != "mem-cache" {
		t.Errorf("Dominant() = %q, want mem-cache", bRes.Dominant())
	}

	// Cache-resident probes must be priced below the same number of DRAM
	// random accesses — the whole point of partitioning.
	dram := exec.Counters{RandomAccesses: 1e8, TuplesScanned: 1e8, MaxHashBytes: 64 << 20}
	bDram := m.Explain(&pi, dram, 0)
	if bRes.Total >= bDram.Total {
		t.Errorf("cache-resident total %g not below DRAM total %g", bRes.Total, bDram.Total)
	}
}

// TestModelPartitionStreaming: partition-pass bytes are streaming
// traffic — they join MemSeqSeconds on the bandwidth side of the
// overlap model and scale with cores like any sequential pass.
func TestModelPartitionStreaming(t *testing.T) {
	m := DefaultModel()
	pi := Pi()
	c := exec.Counters{PartitionBytes: 1 << 30, TuplesScanned: 1e6}
	b := m.Explain(&pi, c, 0)
	if b.PartitionSeconds <= 0 {
		t.Fatal("partition bytes priced at zero")
	}
	if b.Dominant() != "partition" {
		t.Errorf("Dominant() = %q, want partition", b.Dominant())
	}
	if !b.MemoryBound {
		t.Error("pure partition streaming should be memory-bound")
	}
	want := float64(c.PartitionBytes)/pi.MemBW(pi.TotalCores()) + b.OverheadSeconds
	if diff := b.Total - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("total %g != streaming recomposition %g", b.Total, want)
	}
}

func TestEnergy(t *testing.T) {
	pi := Pi()
	if e := pi.Watts() * 10; e != 51 {
		t.Errorf("Pi energy over 10 s = %g J, want 51", e)
	}
	if e := pi.WattsIdle() * 10; e != 19 {
		t.Errorf("Pi idle energy over 10 s = %g J, want 19", e)
	}
	// A dual-socket machine draws both CPUs' power.
	gold, _ := ByName("op-gold")
	if w := gold.Watts(); w != 330 {
		t.Errorf("op-gold draw = %g W, want 330", w)
	}
	if w := gold.WattsIdle(); w != 140 {
		t.Errorf("op-gold idle draw = %g W, want 140", w)
	}
}

func TestEnergyHelpers(t *testing.T) {
	pi := Pi()
	if e := pi.Watts() * (10 * time.Second).Seconds(); e != 51 {
		t.Errorf("Pi energy over 10 s = %g J, want 51", e)
	}
	// A duty cycle of 100 s active and 900 s idle, with the idle node
	// left on or powered off (the sum examples/energyproportional uses).
	on := pi.Watts()*100 + pi.WattsIdle()*900
	off := pi.Watts() * 100
	if on <= off {
		t.Error("powering off idle nodes must save energy")
	}
	if off < 509.9 || off > 510.1 {
		t.Errorf("active-only energy = %v", off)
	}
	if on < 2219.9 || on > 2220.1 {
		t.Errorf("duty-cycle energy = %v", on)
	}
}

func TestServerCostAccessors(t *testing.T) {
	e5, _ := ByName("op-e5")
	if msrp := e5.MSRP(); msrp != 2*1389 {
		t.Errorf("op-e5 MSRP = %v (dual socket should double)", msrp)
	}
	if w := e5.Watts(); w != 190 {
		t.Errorf("op-e5 watts = %v", w)
	}
	if h := e5.Hourly(); h != 0 {
		t.Errorf("on-prem server has an hourly price %v", h)
	}
	for _, cloud := range CloudProfiles() {
		if cloud.MSRP() != 0 || cloud.Watts() != 0 {
			t.Errorf("cloud SKU %s should have no MSRP or TDP", cloud.Name)
		}
	}
	pi := Pi()
	if msrp := pi.MSRP() * 24; msrp != 840 {
		t.Errorf("24-node cluster MSRP = %v, want $840 (paper)", msrp)
	}
	if w := pi.Watts() * 24; w < 122.3 || w > 122.5 {
		t.Errorf("cluster watts = %v, want ~122.4 (the paper's ~122 W)", w)
	}
	if h := pi.Hourly() * 10; h < 0.0039 || h > 0.0041 {
		t.Errorf("cluster hourly = %v", h)
	}
}

func TestImprovementSemantics(t *testing.T) {
	srv, _ := ByName("op-e5")
	flat := func(*Profile) float64 { return 100 }
	// Same cost, the Pi twice as fast: 2x improvement.
	if got, err := Improvement(flat, time.Second, 1, 2*time.Second, &srv); err != nil || got != 2 {
		t.Errorf("improvement = %v, %v", got, err)
	}
	// The Pi twice as slow but 10x cheaper: 5x improvement (the paper's
	// worked example in Section III).
	tenth := func(p *Profile) float64 {
		if p.Category == SBC {
			return 10
		}
		return 100
	}
	if got, err := Improvement(tenth, 2*time.Second, 1, time.Second, &srv); err != nil || got != 5 {
		t.Errorf("improvement = %v, %v, want 5", got, err)
	}
	if got, err := Improvement(tenth, 0, 1, time.Second, &srv); err != nil || got != 0 {
		t.Errorf("zero runtime should yield 0, got %v, %v", got, err)
	}
}

func TestFigureMetrics(t *testing.T) {
	e5, _ := ByName("op-e5")
	// Paper Q6 SF1: Pi 0.099s vs op-e5 0.028s.
	pi := 99 * time.Millisecond
	srv := 28 * time.Millisecond
	msrp, err := Improvement((*Profile).MSRP, pi, 1, srv, &e5)
	if err != nil {
		t.Fatal(err)
	}
	// (0.028*2778)/(0.099*35) = ~22.4 — inside the paper's 7-41x band.
	if msrp < 20 || msrp > 25 {
		t.Errorf("Q6 MSRP improvement = %.1f, want ~22", msrp)
	}
	energy, err := Improvement((*Profile).Watts, pi, 1, srv, &e5)
	if err != nil {
		t.Fatal(err)
	}
	// (0.028*190)/(0.099*5.1) = ~10.5 — the paper's ~10x median.
	if energy < 9 || energy > 12 {
		t.Errorf("Q6 energy improvement = %.1f, want ~10.5", energy)
	}
	m5, _ := ByName("m5.metal")
	hourly, err := Improvement((*Profile).Hourly, pi, 1, 8*time.Millisecond, &m5)
	if err != nil {
		t.Fatal(err)
	}
	// (0.008*4.608)/(0.099*0.0004) = ~930 — the paper's "up to 10,000x"
	// hourly dominance.
	if hourly < 800 || hourly > 1100 {
		t.Errorf("hourly improvement = %.0f", hourly)
	}
	if _, err := Improvement((*Profile).Hourly, pi, 1, srv, &e5); err == nil {
		t.Error("on-prem server has no hourly price")
	}
	if _, err := Improvement((*Profile).MSRP, pi, 1, srv, &m5); err == nil {
		t.Error("cloud SKU has no MSRP")
	}
	if _, err := Improvement((*Profile).Watts, pi, 1, srv, &m5); err == nil {
		t.Error("cloud SKU has no TDP")
	}
}

// TestModelSpillSmoothVsSwapCliff pins the tentpole's pricing story:
// as a join's state grows past RAM, the unbudgeted run falls off the
// superlinear swap cliff, while the budget-bounded run (state capped at
// the resident budget, excess priced as one sequential spill pass)
// degrades smoothly: its time is monotone and its first differences
// never exceed the spill device's per-byte cost — linear, no cliff.
func TestModelSpillSmoothVsSwapCliff(t *testing.T) {
	m := DefaultModel()
	pi := Pi()
	const budget = 700 << 20 // resident budget under the Pi's 1 GB

	sweep := []int64{500 << 20, 900 << 20, 1300 << 20, 1700 << 20, 2100 << 20, 2500 << 20}
	var prevSwap, prevSpill float64
	var prevWS int64
	var worstSwapJump float64
	for i, ws := range sweep {
		swap := scanCounters(100 << 20)
		swap.PeakLiveBytes = ws

		spilled := scanCounters(100 << 20)
		spilled.PeakLiveBytes = ws
		if ws > budget {
			// The spill join streams the beyond-budget state out once and
			// reads it back (twice for the inner fill pass).
			spilled.ResidentCapBytes = budget
			spilled.SpillWriteBytes = ws - budget
			spilled.SpillReadBytes = 2 * (ws - budget)
		}

		ts := m.Explain(&pi, swap, 0).Total
		tp := m.Explain(&pi, spilled, 0).Total
		if tp <= 0 || ts <= 0 {
			t.Fatalf("non-positive time at ws=%d", ws)
		}
		if i > 0 {
			if j := ts / prevSwap; j > worstSwapJump {
				worstSwapJump = j
			}
			if tp < prevSpill {
				t.Errorf("spill model not monotone: %g after %g at ws=%d", tp, prevSpill, ws)
			}
			// Smoothness: one sweep step may cost at most the sequential
			// price of spilling its extra bytes (3 passes: write + two
			// reads), never a superlinear jump.
			maxStep := 1.01 * 3 * float64(ws-prevWS) / m.SpillBWBytes
			if d := tp - prevSpill; d > maxStep {
				t.Errorf("spill model jumps at ws=%d: step %gs > linear bound %gs", ws, d, maxStep)
			}
		}
		prevSwap, prevSpill, prevWS = ts, tp, ws
	}
	if worstSwapJump < 5 {
		t.Errorf("swap model shows no cliff (worst adjacent jump %.1fx); the comparison is vacuous", worstSwapJump)
	}
	if prevSpill >= prevSwap {
		t.Errorf("at the deep end the spilled run (%gs) must beat thrashing (%gs)", prevSpill, prevSwap)
	}

	// The spilled deep end is spill-dominated and memory-bound.
	c := scanCounters(100 << 20)
	c.PeakLiveBytes = 2500 << 20
	c.ResidentCapBytes = budget
	c.SpillWriteBytes = c.PeakLiveBytes - budget
	c.SpillReadBytes = 2 * (c.PeakLiveBytes - budget)
	b := m.Explain(&pi, c, 0)
	if b.SpillSeconds <= 0 || b.Dominant() != "spill" || !b.MemoryBound {
		t.Errorf("deep spill breakdown wrong: dominant=%s %+v", b.Dominant(), b)
	}
	if b.SwapSeconds != 0 {
		t.Errorf("resident-capped run must not also pay the swap cliff: %+v", b)
	}
}
