// Package exec implements the vectorized execution kernels of the WimPi
// OLAP engine: selection, expression evaluation, hash joins, grouped
// aggregation and sorting, all operating column-at-a-time over
// colstore data.
//
// Every kernel charges its work to a Counters value. The counters are the
// bridge to the hardware simulation layer (package hardware): queries run
// for real on the host to produce correct results, while the recorded
// work profile — sequential bytes streamed, random accesses performed,
// arithmetic executed — is translated into simulated runtimes for each of
// the paper's ten hardware comparison points.
package exec

// Counters records the work performed by kernels during a query. Fields
// are plain integers; kernels run single-threaded per morsel and
// per-morsel counters are merged with Add.
type Counters struct {
	// TuplesScanned counts base-table tuples visited by selections and
	// scans.
	TuplesScanned int64
	// SeqBytes counts bytes streamed sequentially: base column reads and
	// materialized intermediate writes/reads.
	SeqBytes int64
	// RandomAccesses counts data-dependent (cache-unfriendly) accesses:
	// hash probes, hash inserts, and gathers through selection vectors.
	RandomAccesses int64
	// IntOps counts integer/branch operations: predicate evaluations, key
	// encodings, comparisons.
	IntOps int64
	// FloatOps counts floating-point operations in expression and
	// aggregate kernels.
	FloatOps int64
	// HashBuildTuples counts tuples inserted into hash tables.
	HashBuildTuples int64
	// HashProbeTuples counts tuples probed against hash tables.
	HashProbeTuples int64
	// AggUpdates counts aggregate-state updates.
	AggUpdates int64
	// TuplesMaterialized counts tuples written to intermediate tables.
	TuplesMaterialized int64
	// BytesMaterialized counts bytes written to intermediate tables.
	BytesMaterialized int64
	// MaxHashBytes tracks the footprint of the largest hash table built,
	// used by the hardware model to decide whether probes hit LLC.
	MaxHashBytes int64
	// PeakLiveBytes approximates the peak of live intermediate data plus
	// touched base columns, used by the cluster memory-pressure model.
	PeakLiveBytes int64
	// TouchedBaseBytes sums the footprint of every base-table column a
	// query reads. Together with PeakLiveBytes and MaxHashBytes it
	// estimates the resident working set for the memory-pressure model.
	TouchedBaseBytes int64
	// MergeBytes counts bytes moved solely because of parallel execution:
	// folding thread-local aggregation state into the global table and
	// concatenating per-morsel outputs. (A partitioned hash-join build
	// charges its scatter as PartitionBytes.) The hardware model charges these at single-core bandwidth, so
	// simulated parallel speedups stay sub-linear instead of assuming
	// perfect scaling.
	MergeBytes int64
	// CacheRandomAccesses counts data-dependent accesses into structures
	// deliberately sized to stay cache-resident — the clustered
	// group-by's chunk groupers and the lookup tables of Figure 4's
	// strategies and fused.CompileRow; no join charges them. The hardware
	// model charges them at LLC rather than DRAM latency (as long as
	// MaxPartitionBytes fits the profile's LLC), which is the whole point
	// of cache-sized structures on wimpy nodes.
	CacheRandomAccesses int64
	// PartitionBytes counts bytes streamed by radix partition passes:
	// sequential reads plus bounded-fanout scattered writes. The model
	// charges them at full-parallel sequential bandwidth.
	PartitionBytes int64
	// MaxPartitionBytes tracks the footprint of the largest cache-sized
	// structure (a chunk's grouper or a strategy's lookup table) a query
	// built. The hardware model compares it against the profile LLC to
	// decide whether CacheRandomAccesses really hit cache.
	MaxPartitionBytes int64
	// SpillWriteBytes counts bytes written to the on-disk spill area by
	// budget-bounded operators. The hardware model charges them at
	// sequential spill-device bandwidth — planned, priced I/O instead of
	// the unplanned swap-thrash penalty.
	SpillWriteBytes int64
	// SpillReadBytes counts bytes read back from the spill area.
	SpillReadBytes int64
	// ResidentCapBytes, when non-zero, records the memory budget a
	// spilling operator planned under: state beyond the cap was streamed
	// through the spill area, so the hardware model caps the resident
	// working set at this value instead of extrapolating swap thrash.
	ResidentCapBytes int64

	// sched is the query's scheduling handle (cancellation context and
	// optional worker-pool membership), threaded to every kernel through
	// the counters they already receive, and scratch its runner's scratch.
	// Neither is part of the work profile: Add and DiffCounters ignore
	// them, and the plan layer clears them before a query's counters are
	// snapshotted into results.
	sched   *Sched
	scratch *Scratch
}

// SetSched attaches (or, with nil, detaches) the query's scheduling
// handle and its slot 0, the caller's scratch. RunMorsels reads the
// handle from the root counters to observe cancellation between morsels
// and to route morsels through a shared pool. Only the root per-query
// Counters should carry a handle; per-morsel part counters never do, so
// nested kernels inherit plain execution.
func (c *Counters) SetSched(s *Sched) {
	c.sched, c.scratch = s, nil
	if s != nil && len(s.slots) > 0 {
		c.scratch = s.slots[0]
	}
}

// Scratch returns the kernel's runner scratch, nil outside any runner.
func (c *Counters) Scratch() *Scratch { return c.scratch }

// Add accumulates o into c. Max-like fields take the maximum.
func (c *Counters) Add(o Counters) {
	c.TuplesScanned += o.TuplesScanned
	c.SeqBytes += o.SeqBytes
	c.RandomAccesses += o.RandomAccesses
	c.IntOps += o.IntOps
	c.FloatOps += o.FloatOps
	c.HashBuildTuples += o.HashBuildTuples
	c.HashProbeTuples += o.HashProbeTuples
	c.AggUpdates += o.AggUpdates
	c.TuplesMaterialized += o.TuplesMaterialized
	c.BytesMaterialized += o.BytesMaterialized
	c.TouchedBaseBytes += o.TouchedBaseBytes
	c.MergeBytes += o.MergeBytes
	c.CacheRandomAccesses += o.CacheRandomAccesses
	c.PartitionBytes += o.PartitionBytes
	c.SpillWriteBytes += o.SpillWriteBytes
	c.SpillReadBytes += o.SpillReadBytes
	if o.ResidentCapBytes > c.ResidentCapBytes {
		c.ResidentCapBytes = o.ResidentCapBytes
	}
	if o.MaxPartitionBytes > c.MaxPartitionBytes {
		c.MaxPartitionBytes = o.MaxPartitionBytes
	}
	if o.MaxHashBytes > c.MaxHashBytes {
		c.MaxHashBytes = o.MaxHashBytes
	}
	if o.PeakLiveBytes > c.PeakLiveBytes {
		c.PeakLiveBytes = o.PeakLiveBytes
	}
}

// DiffCounters returns the work charged between two snapshots of the
// same counter set: additive fields subtract (after - before), while
// the high-water fields (MaxHashBytes, PeakLiveBytes, MaxPartitionBytes,
// ResidentCapBytes) keep the after value. It is the snapshot delta used by operator
// spans and EXPLAIN ANALYZE.
func DiffCounters(before, after Counters) Counters {
	return Counters{
		TuplesScanned:       after.TuplesScanned - before.TuplesScanned,
		SeqBytes:            after.SeqBytes - before.SeqBytes,
		RandomAccesses:      after.RandomAccesses - before.RandomAccesses,
		IntOps:              after.IntOps - before.IntOps,
		FloatOps:            after.FloatOps - before.FloatOps,
		HashBuildTuples:     after.HashBuildTuples - before.HashBuildTuples,
		HashProbeTuples:     after.HashProbeTuples - before.HashProbeTuples,
		AggUpdates:          after.AggUpdates - before.AggUpdates,
		TuplesMaterialized:  after.TuplesMaterialized - before.TuplesMaterialized,
		BytesMaterialized:   after.BytesMaterialized - before.BytesMaterialized,
		TouchedBaseBytes:    after.TouchedBaseBytes - before.TouchedBaseBytes,
		MergeBytes:          after.MergeBytes - before.MergeBytes,
		CacheRandomAccesses: after.CacheRandomAccesses - before.CacheRandomAccesses,
		PartitionBytes:      after.PartitionBytes - before.PartitionBytes,
		SpillWriteBytes:     after.SpillWriteBytes - before.SpillWriteBytes,
		SpillReadBytes:      after.SpillReadBytes - before.SpillReadBytes,
		ResidentCapBytes:    after.ResidentCapBytes,
		MaxHashBytes:        after.MaxHashBytes,
		PeakLiveBytes:       after.PeakLiveBytes,
		MaxPartitionBytes:   after.MaxPartitionBytes,
	}
}

// ObserveHashBytes records a hash-table footprint.
func (c *Counters) ObserveHashBytes(n int64) {
	if n > c.MaxHashBytes {
		c.MaxHashBytes = n
	}
}

// ObservePartitionBytes records the footprint of a cache-sized structure,
// such as a clustered group-by chunk's grouper or a strategy's lookup
// table.
func (c *Counters) ObservePartitionBytes(n int64) {
	if n > c.MaxPartitionBytes {
		c.MaxPartitionBytes = n
	}
}

// ObserveResidentCap records the memory budget a spilling operator
// planned under (see Counters.ResidentCapBytes).
func (c *Counters) ObserveResidentCap(n int64) {
	if n > c.ResidentCapBytes {
		c.ResidentCapBytes = n
	}
}

// ObserveLiveBytes records an estimate of currently live bytes.
func (c *Counters) ObserveLiveBytes(n int64) {
	if n > c.PeakLiveBytes {
		c.PeakLiveBytes = n
	}
}
