package exec

// Grouper assigns dense group IDs to 64-bit group keys using an
// open-addressing hash table. It may be fed incrementally (morsel by
// morsel); group IDs are stable across calls.
type Grouper struct {
	slotKeys []int64
	slotGID  []int32
	keys     []int64 // group id -> representative key
	shift    uint
}

// NewGrouper returns a Grouper with capacity for roughly hint groups
// before growing.
func NewGrouper(hint int) *Grouper {
	g := &Grouper{}
	g.Reset(hint)
	return g
}

// Reset empties g and sizes it for roughly hint groups, exactly as
// NewGrouper(hint) would, but keeps the slot and key storage g already
// owns. A reset Grouper probes, grows and reports its footprint like a
// fresh one — only the allocations go — so a worker can carry one
// Grouper across many partitions. Slices returned by GroupKeys before
// the call are invalidated.
func (g *Grouper) Reset(hint int) {
	g.keys = g.keys[:0]
	g.resize(nextPow2(hint*2 + 1))
}

// resize empties the slot table at the given capacity, reusing the
// backing arrays when they are large enough.
func (g *Grouper) resize(capacity int) {
	if cap(g.slotGID) < capacity {
		g.slotKeys = make([]int64, capacity)
		g.slotGID = make([]int32, capacity)
	} else {
		g.slotKeys = g.slotKeys[:capacity]
		g.slotGID = g.slotGID[:capacity]
	}
	g.shift = uint(64 - log2(capacity))
	for i := range g.slotGID {
		g.slotGID[i] = -1
	}
}

// GroupIDs maps each key to its dense group ID, assigning fresh IDs to
// unseen keys.
func (g *Grouper) GroupIDs(keys []int64, ctr *Counters) []int32 {
	out := make([]int32, len(keys))
	for i, k := range keys {
		out[i] = g.groupID(k)
	}
	ctr.RandomAccesses += int64(len(keys))
	ctr.AggUpdates += int64(len(keys))
	ctr.ObserveHashBytes(int64(len(g.slotKeys)) * 12)
	return out
}

// GroupIDsCacheResident is GroupIDs for groupers deliberately sized to
// stay cache-resident — the radix group-by's per-partition tables. It
// writes the IDs into out (len(out) == len(keys)) instead of allocating.
// The per-tuple accesses charge CacheRandomAccesses instead of
// RandomAccesses, and the footprint is recorded as a partition footprint
// so the hardware model can check it really fits the LLC.
func (g *Grouper) GroupIDsCacheResident(keys []int64, out []int32, ctr *Counters) {
	for i, k := range keys {
		out[i] = g.groupID(k)
	}
	ctr.CacheRandomAccesses += int64(len(keys))
	ctr.AggUpdates += int64(len(keys))
	ctr.ObservePartitionBytes(int64(len(g.slotKeys)) * 12)
}

// GrouperBytes predicts a Grouper's table footprint once n distinct keys
// are resident (capacity stays at least twice the group count), letting
// the planner compare an aggregation hash table against the LLC.
func GrouperBytes(n int) int64 {
	return int64(nextPow2(n*2+1)) * 12
}

func (g *Grouper) groupID(k int64) int32 {
	mask := uint64(len(g.slotKeys) - 1)
	slot := hashKey(k, g.shift) & mask
	for {
		gid := g.slotGID[slot]
		if gid < 0 {
			gid = int32(len(g.keys))
			g.keys = append(g.keys, k)
			g.slotKeys[slot] = k
			g.slotGID[slot] = gid
			if len(g.keys)*2 > len(g.slotKeys) {
				g.grow()
			}
			return gid
		}
		if g.slotKeys[slot] == k {
			return gid
		}
		slot = (slot + 1) & mask
	}
}

func (g *Grouper) grow() {
	g.resize(len(g.slotKeys) * 2)
	mask := uint64(len(g.slotKeys) - 1)
	for gid, k := range g.keys {
		slot := hashKey(k, g.shift) & mask
		for g.slotGID[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		g.slotKeys[slot] = k
		g.slotGID[slot] = int32(gid)
	}
}

// NumGroups reports the number of distinct keys seen.
func (g *Grouper) NumGroups() int { return len(g.keys) }

// GroupKeys returns the representative key of each group, indexed by
// group ID. The returned slice must not be mutated.
func (g *Grouper) GroupKeys() []int64 { return g.keys }

// The Scatter* kernels accumulate per-group aggregate state. Accumulator
// slices grow on demand so they can be shared across morsels.

func growF64(s *[]float64, n int, fill float64) {
	for len(*s) < n {
		*s = append(*s, fill)
	}
}

func growI64(s *[]int64, n int, fill int64) {
	for len(*s) < n {
		*s = append(*s, fill)
	}
}

// ScatterSumF64 adds vals[i] to (*acc)[gids[i]].
func ScatterSumF64(gids []int32, vals []float64, acc *[]float64, ngroups int, ctr *Counters) {
	growF64(acc, ngroups, 0)
	a := *acc
	for i, g := range gids {
		a[g] += vals[i]
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids))
}

// ScatterSumI64 adds vals[i] to (*acc)[gids[i]].
func ScatterSumI64(gids []int32, vals []int64, acc *[]int64, ngroups int, ctr *Counters) {
	growI64(acc, ngroups, 0)
	a := *acc
	for i, g := range gids {
		a[g] += vals[i]
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
}

// ScatterCount increments (*acc)[gids[i]] for every i.
func ScatterCount(gids []int32, acc *[]int64, ngroups int, ctr *Counters) {
	growI64(acc, ngroups, 0)
	a := *acc
	for _, g := range gids {
		a[g]++
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
}

// ScatterMinF64 folds vals[i] into (*acc)[gids[i]] with min. New groups
// start at +Inf supplied by the caller via fill.
//
// NaN handling (audited with cmpOrderF's total order): `v < acc` is
// false whenever v is NaN, so NaN inputs are skipped and — because the
// accumulator starts at a non-NaN fill — NaN can never become the
// accumulator and poison later comparisons. Min and Max skip NaN
// symmetrically, so both are independent of input order and of the
// morsel decomposition; an all-NaN group deterministically reports its
// fill. See TestScatterMinMaxF64NaNOrderIndependent.
func ScatterMinF64(gids []int32, vals []float64, acc *[]float64, ngroups int, fill float64, ctr *Counters) {
	growF64(acc, ngroups, fill)
	a := *acc
	for i, g := range gids {
		if vals[i] < a[g] {
			a[g] = vals[i]
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids))
}

// ScatterMaxF64 folds vals[i] into (*acc)[gids[i]] with max. NaN inputs
// are skipped, mirroring ScatterMinF64 (see its NaN note).
func ScatterMaxF64(gids []int32, vals []float64, acc *[]float64, ngroups int, fill float64, ctr *Counters) {
	growF64(acc, ngroups, fill)
	a := *acc
	for i, g := range gids {
		if vals[i] > a[g] {
			a[g] = vals[i]
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids))
}

// ScatterMinI64 folds vals[i] into (*acc)[gids[i]] with min.
func ScatterMinI64(gids []int32, vals []int64, acc *[]int64, ngroups int, fill int64, ctr *Counters) {
	growI64(acc, ngroups, fill)
	a := *acc
	for i, g := range gids {
		if vals[i] < a[g] {
			a[g] = vals[i]
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
}

// ScatterMaxI64 folds vals[i] into (*acc)[gids[i]] with max.
func ScatterMaxI64(gids []int32, vals []int64, acc *[]int64, ngroups int, fill int64, ctr *Counters) {
	growI64(acc, ngroups, fill)
	a := *acc
	for i, g := range gids {
		if vals[i] > a[g] {
			a[g] = vals[i]
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
}

// SumF64 returns the sum of vals (ungrouped aggregate).
func SumF64(vals []float64, ctr *Counters) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	ctr.FloatOps += int64(len(vals))
	return s
}

// SumI64 returns the sum of vals.
func SumI64(vals []int64, ctr *Counters) int64 {
	var s int64
	for _, v := range vals {
		s += v
	}
	ctr.IntOps += int64(len(vals))
	return s
}
