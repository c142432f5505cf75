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
	g.GroupIDsInto(keys, out, ctr)
	return out
}

// GroupIDsInto is GroupIDs into a caller's buffer (len(out) ==
// len(keys)).
func (g *Grouper) GroupIDsInto(keys []int64, out []int32, ctr *Counters) {
	for i, k := range keys {
		out[i] = g.groupID(k)
	}
	ctr.RandomAccesses += int64(len(keys))
	ctr.AggUpdates += int64(len(keys))
	ctr.ObserveHashBytes(int64(len(g.slotKeys)) * 12)
}

// DirectGroupIDs is a Grouper for keys that all lie in [0, len(slots)):
// the key itself indexes slots, so nothing is hashed or probed. It writes
// each key's dense group ID into out (len(out) == len(keys)), in order of
// first occurrence, and returns groupKeys[:0] extended by each group's
// key — what a fresh Grouper's GroupIDs and GroupKeys would give. Every
// slot must hold -1 on entry, and does again on return. Charges are a
// Grouper probe's, with the slot table as the hash footprint.
func DirectGroupIDs(keys []int64, slots, out []int32, groupKeys []int64, ctr *Counters) []int64 {
	groupKeys = groupKeys[:0]
	for i, k := range keys {
		gid := slots[k]
		if gid < 0 {
			gid = int32(len(groupKeys))
			slots[k] = gid
			groupKeys = append(groupKeys, k)
		}
		out[i] = gid
	}
	for _, k := range groupKeys {
		slots[k] = -1
	}
	ctr.RandomAccesses += int64(len(keys))
	ctr.AggUpdates += int64(len(keys))
	ctr.ObserveHashBytes(int64(len(slots)) * 4)
	return groupKeys
}

// GroupIDsCacheResident is GroupIDs for groupers deliberately sized to
// stay cache-resident — the clustered group-by's per-chunk tables. It
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

// grow extends *s to n entries, each new one set to fill.
func grow[T any](s *[]T, n int, fill T) {
	for len(*s) < n {
		*s = append(*s, fill)
	}
}

// ScatterSumsF64 adds vals[j][i] to accs[j][gids[i]] for every j and i;
// each accs[j] must already hold an accumulator per group. One loop over
// the rows serves up to four accumulators: with few groups, one
// accumulator's adds form a store-to-load chain through a single cache
// line, and four independent chains overlap. Each accumulator still adds
// its values in row order, so every sum is bit-identical to a loop of its
// own, and each is charged as one.
func ScatterSumsF64(gids []int32, vals, accs [][]float64, ctr *Counters) {
	n := len(gids)
	for j := 0; j < len(vals); j += 4 {
		switch len(vals) - j {
		case 1:
			a0, v0 := accs[j], vals[j][:n]
			for i, g := range gids {
				a0[g] += v0[i]
			}
		case 2:
			a0, v0 := accs[j], vals[j][:n]
			a1, v1 := accs[j+1], vals[j+1][:n]
			for i, g := range gids {
				a0[g] += v0[i]
				a1[g] += v1[i]
			}
		case 3:
			a0, v0 := accs[j], vals[j][:n]
			a1, v1 := accs[j+1], vals[j+1][:n]
			a2, v2 := accs[j+2], vals[j+2][:n]
			for i, g := range gids {
				a0[g] += v0[i]
				a1[g] += v1[i]
				a2[g] += v2[i]
			}
		default:
			a0, v0 := accs[j], vals[j][:n]
			a1, v1 := accs[j+1], vals[j+1][:n]
			a2, v2 := accs[j+2], vals[j+2][:n]
			a3, v3 := accs[j+3], vals[j+3][:n]
			for i, g := range gids {
				a0[g] += v0[i]
				a1[g] += v1[i]
				a2[g] += v2[i]
				a3[g] += v3[i]
			}
		}
	}
	ctr.AggUpdates += int64(n) * int64(len(vals))
	ctr.FloatOps += int64(n) * int64(len(vals))
}

// ScatterSumI64 adds vals[i] to (*acc)[gids[i]].
func ScatterSumI64(gids []int32, vals []int64, acc *[]int64, ngroups int, ctr *Counters) {
	grow(acc, ngroups, 0)
	a := *acc
	for i, g := range gids {
		a[g] += vals[i]
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
}

// ScatterCount increments counts[gids[i]] for every i; counts must
// already hold a counter per group. The count is taken once for users
// aggregates that all need it — COUNT and every AVG — and each is
// charged the scatter it would have run alone.
func ScatterCount(gids []int32, counts []int64, users int, ctr *Counters) {
	for _, g := range gids {
		counts[g]++
	}
	ctr.AggUpdates += int64(len(gids)) * int64(users)
	ctr.IntOps += int64(len(gids)) * int64(users)
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
	grow(acc, ngroups, fill)
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
	grow(acc, ngroups, fill)
	a := *acc
	for i, g := range gids {
		if vals[i] > a[g] {
			a[g] = vals[i]
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids))
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
