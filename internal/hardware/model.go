package hardware

import (
	"time"

	"wimpi/internal/exec"
)

// Model converts a recorded work profile into simulated runtimes for any
// hardware profile. The tunables have physically motivated defaults;
// tests pin down the model's qualitative behaviour (monotonicity, the
// CPU-bound/memory-bound split) rather than absolute constants.
type Model struct {
	// HashOpCost is the integer-op cost charged per hash build/probe
	// tuple on top of the random access itself.
	HashOpCost float64
	// AggOpCost is the integer-op cost per aggregate-state update.
	AggOpCost float64
	// MLP is the assumed memory-level parallelism per core: how many
	// independent random accesses a core keeps in flight.
	MLP float64
	// SwapBWBytes is the microSD/swap device bandwidth used when a
	// working set exceeds RAM (the WimPi thrashing cliff, §III-C.4).
	SwapBWBytes float64
	// SwapPassFactor scales the thrash penalty once a working set
	// exceeds RAM. It is calibrated so the Table III cliff magnitude
	// matches the paper's relative shape at this engine's (leaner)
	// absolute time scale.
	SwapPassFactor float64
	// SpillBWBytes is the device bandwidth for planned operator spill
	// I/O. It is the same physical device as swap, but spill I/O is
	// sequential and paid exactly once per byte, while thrashing pays the
	// superlinear multi-pass penalty — that difference is the point of
	// budget-bounded execution.
	SpillBWBytes float64
}

// DefaultModel returns the calibrated default model.
func DefaultModel() Model {
	return Model{
		HashOpCost:     10,
		AggOpCost:      6,
		MLP:            4,
		SwapBWBytes:    80e6, // ~80 MB/s microSD
		SwapPassFactor: 1.5,
		SpillBWBytes:   80e6,
	}
}

// Breakdown reports where simulated time went, for EXPLAIN ANALYZE-style
// output and for tests that check which resource bound a query.
type Breakdown struct {
	// CPUSeconds is integer+float compute time.
	CPUSeconds float64
	// MemSeqSeconds is sequential-bandwidth time.
	MemSeqSeconds float64
	// MemRandSeconds is random-access latency time (DRAM, unless the
	// whole hash working set fits the LLC).
	MemRandSeconds float64
	// MemCacheSeconds is latency time of random accesses into structures
	// sized to stay cache-resident (clustered group-by chunks, Figure 4's
	// lookup tables); it is charged at LLC latency as long as
	// MaxPartitionBytes fits the profile LLC.
	MemCacheSeconds float64
	// PartitionSeconds is streaming time of radix partition passes,
	// charged at full-parallel sequential bandwidth alongside
	// MemSeqSeconds.
	PartitionSeconds float64
	// MergeSeconds is time spent combining per-worker partial results
	// (folding thread-local aggregates, concatenating per-morsel
	// outputs). It is charged at single-core bandwidth and does not
	// shrink with more cores, so parallel speedups stay sub-linear.
	MergeSeconds float64
	// SwapSeconds is thrashing time when the working set exceeds RAM.
	SwapSeconds float64
	// SpillSeconds is planned operator-spill I/O time: sequential,
	// charged once per byte at the spill device's bandwidth.
	SpillSeconds float64
	// OverheadSeconds is fixed per-query system overhead.
	OverheadSeconds float64
	// Total is the simulated wall-clock time.
	Total float64
	// MemoryBound reports whether bandwidth (rather than compute)
	// dominated.
	MemoryBound bool
}

// QueryTime simulates the runtime of a query whose kernels recorded c,
// executed with up to dop parallel workers on profile p. dop <= 0 means
// all cores.
func (m Model) QueryTime(p *Profile, c exec.Counters, dop int) time.Duration {
	return time.Duration(m.Explain(p, c, dop).Total * float64(time.Second))
}

// Explain is QueryTime with a full resource breakdown.
func (m Model) Explain(p *Profile, c exec.Counters, dop int) Breakdown {
	cores := p.TotalCores()
	if dop > 0 && dop < cores {
		cores = dop
	}
	fcores := float64(cores)

	intOps := float64(c.IntOps) +
		m.HashOpCost*float64(c.HashBuildTuples+c.HashProbeTuples) +
		m.AggOpCost*float64(c.AggUpdates)
	cpu := intOps/(p.IntOpsPerCore*fcores*p.SMTSpeedup) +
		float64(c.FloatOps)/(p.FpOpsPerCore*fcores*p.SMTSpeedup)

	memSeq := float64(c.SeqBytes) / p.MemBW(cores)

	lat := p.DRAMLatency
	if c.MaxHashBytes > 0 && c.MaxHashBytes <= p.LLCBytes {
		lat = p.LLCLatency
	}
	memRand := float64(c.RandomAccesses) * lat / (fcores * m.MLP)

	// Accesses into structures sized to stay cache-resident hit LLC
	// latency — unless the largest such structure actually overflowed
	// this profile's LLC, in which case the promise is void and they
	// degrade to DRAM latency.
	cacheLat := p.LLCLatency
	if c.MaxPartitionBytes > p.LLCBytes {
		cacheLat = p.DRAMLatency
	}
	memCache := float64(c.CacheRandomAccesses) * cacheLat / (fcores * m.MLP)

	// Partition passes are pure streaming and scale with cores.
	memPart := float64(c.PartitionBytes) / p.MemBW(cores)

	// Merge work is the serial fraction of parallel execution: it runs
	// on one core at single-core bandwidth regardless of dop.
	var memMerge float64
	if cores > 1 {
		memMerge = float64(c.MergeBytes) / p.MemBW(1)
	}

	var swap float64
	// The query's working set: every base column touched, plus live
	// intermediates and the largest hash table. Once it exceeds RAM,
	// the node thrashes: pages cycle through the microSD swap device
	// repeatedly (§III-C.4). A budget-bounded run caps its operator
	// state at the resident budget — the beyond-budget part went through
	// the spill area and is priced below, not through the cliff.
	state := c.PeakLiveBytes + c.MaxHashBytes
	if cap := c.ResidentCapBytes; cap > 0 && state > cap {
		state = cap
	}
	working := c.TouchedBaseBytes + state
	if p.RAMBytes > 0 && working > p.RAMBytes {
		pressure := float64(working) / float64(p.RAMBytes)
		swap = float64(working) * (pressure - 1) * pressure * m.SwapPassFactor / m.SwapBWBytes
	}

	// Planned spill I/O is sequential and paid exactly once per byte.
	spillBW := m.SpillBWBytes
	if spillBW <= 0 {
		spillBW = m.SwapBWBytes
	}
	spill := float64(c.SpillWriteBytes+c.SpillReadBytes) / spillBW

	b := Breakdown{
		CPUSeconds:       cpu,
		MemSeqSeconds:    memSeq,
		MemRandSeconds:   memRand,
		MemCacheSeconds:  memCache,
		PartitionSeconds: memPart,
		MergeSeconds:     memMerge,
		SwapSeconds:      swap,
		SpillSeconds:     spill,
		OverheadSeconds:  p.QueryOverheadSec,
	}
	// Sequential streaming (base scans and partition passes alike)
	// overlaps with compute (column-at-a-time kernels are either
	// bandwidth- or compute-limited); random access latency and the
	// serial merge phase overlap only partially.
	streaming := memSeq + memPart
	busy := cpu + memRand + memCache + memMerge
	if streaming > busy {
		b.Total = streaming
		b.MemoryBound = true
	} else {
		b.Total = busy
	}
	b.Total += swap + spill + p.QueryOverheadSec
	if swap > b.Total/2 || spill > b.Total/2 {
		b.MemoryBound = true
	}
	return b
}

// Dominant names the resource that dominated the breakdown: "cpu",
// "mem-seq", "mem-rand", "merge", "swap", or "spill". Breakdowns with no
// work
// report "-". EXPLAIN ANALYZE uses it to label each operator with the
// bound the paper argues about (memory- vs CPU-bound).
func (b Breakdown) Dominant() string {
	name, best := "-", 0.0
	for _, r := range []struct {
		name string
		sec  float64
	}{
		{"cpu", b.CPUSeconds},
		{"mem-seq", b.MemSeqSeconds},
		{"mem-rand", b.MemRandSeconds},
		{"mem-cache", b.MemCacheSeconds},
		{"partition", b.PartitionSeconds},
		{"merge", b.MergeSeconds},
		{"swap", b.SwapSeconds},
		{"spill", b.SpillSeconds},
	} {
		if r.sec > best {
			name, best = r.name, r.sec
		}
	}
	return name
}

// OperatorTime is QueryTime without the fixed per-query overhead: the
// simulated cost attributable to one operator's recorded work. EXPLAIN
// ANALYZE uses it to attribute a query's simulated time across the span
// tree (the per-query overhead belongs to the query, not any operator).
func (m Model) OperatorTime(p *Profile, c exec.Counters, dop int) time.Duration {
	b := m.Explain(p, c, dop)
	return time.Duration((b.Total - b.OverheadSeconds) * float64(time.Second))
}

// Sim prices recorded work on one profile at a degree of parallelism
// (DOP <= 0: all its cores): the simulated columns of EXPLAIN ANALYZE
// (obs.Simulator).
type Sim struct {
	Model   Model
	Profile *Profile
	DOP     int
}

// Name implements obs.Simulator.
func (s Sim) Name() string { return s.Profile.Name }

// OperatorTime implements obs.Simulator.
func (s Sim) OperatorTime(c exec.Counters) (time.Duration, string) {
	return s.Model.OperatorTime(s.Profile, c, s.DOP), s.Model.Explain(s.Profile, c, s.DOP).Dominant()
}

// OverheadSeconds implements obs.Simulator.
func (s Sim) OverheadSeconds() float64 { return s.Profile.QueryOverheadSec }
