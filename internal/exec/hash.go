package exec

import (
	"fmt"
	"math"
	"math/bits"
)

// hashKey mixes a 64-bit key with a full multiply-shift (Fibonacci)
// finalizer: xor-shifts fold the high half of the state into the low
// bits between two golden-ratio multiplies, so every input bit diffuses
// into the high output bits that slots are derived from. A bare
// multiply-shift maps keys sharing low-order structure (power-of-two
// strides, packed multi-column keys) onto clustered slots and linear
// probing degenerates into long scans; TestHashKeyDistribution pins the
// fixed behaviour on sequential, strided, and skewed key sets.
func hashKey(k int64, shift uint) uint64 {
	h := uint64(k)
	h ^= h >> 32
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 32
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 28
	return h >> shift
}

// nextPow2 returns the smallest power of two >= n, floored at 16. Inputs
// beyond the largest int power of two clamp to it instead of shifting
// into a negative (and then panicking) capacity.
func nextPow2(n int) int {
	if n <= 16 {
		return 16
	}
	const maxPow2 = 1 << (bits.UintSize - 2)
	if n > maxPow2 {
		return maxPow2
	}
	return 1 << bits.Len(uint(n-1))
}

// JoinProber is the probe side of a built join, whatever the layout of
// its build side: the chained or positional JoinTable, the compact
// RadixJoinTable, or the plan layer's spill joiner over compact
// partitions on disk. All
// implementations return byte-identical match sets — probe rows
// ascending, a key's duplicate build rows in descending row order — at
// every worker count, so everything downstream of a probe is shared.
// The only errors are the query's cancellation, spill I/O, and
// *JoinOverflowError.
type JoinProber interface {
	// InnerJoin returns matching (build row, probe row) pairs.
	InnerJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) (buildIdx, probeIdx []int32, err error)
	// SemiJoin returns the probe rows having at least one match.
	SemiJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int32, error)
	// AntiJoin returns the probe rows having no match.
	AntiJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int32, error)
	// CountPerProbe returns the match count of every probe row
	// (COUNT-augmented outer joins such as TPC-H Q13's).
	CountPerProbe(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int64, error)
}

// JoinOverflowError reports an inner join with more matching pairs than
// a result can address: row ids are int32 throughout the engine.
type JoinOverflowError struct {
	// Matches is the pair count, counted before any pair is emitted.
	Matches int64
}

func (e *JoinOverflowError) Error() string {
	return fmt.Sprintf("exec: inner join produces %d matching pairs, more than the %d a result can address", e.Matches, math.MaxInt32)
}

// checkJoinMatches is the one bound on an inner join's output size.
func checkJoinMatches(matches int64) error {
	if matches > math.MaxInt32 {
		return &JoinOverflowError{Matches: matches}
	}
	return nil
}

const (
	// parallelBuildMinRows is the smallest build side worth partitioning;
	// below it a single sequential table is cheaper.
	parallelBuildMinRows = 1 << 14
	// parallelProbeMinRows is the smallest probe side split into morsels.
	parallelProbeMinRows = 1 << 14
	// maxBuildPartitions caps the partition fan-out of a parallel build.
	maxBuildPartitions = 64
)

// JoinTableBytes predicts the footprint of BuildJoinTable's result for n
// build rows, letting the planner compare a chained table against the
// LLC before building anything.
func JoinTableBytes(n int) int64 {
	capacity := nextPow2(n*2 + 1)
	return int64(capacity)*12 + int64(n)*4
}

// JoinTable is the chained layout of an equi-join's build side: 2^bits
// open-addressing tables over distinct keys, whose slots hold the first
// build row of a key; duplicate build rows chain through the shared next
// array. Build-row payloads are represented by their row indexes, so the
// probe result can gather any build column afterwards. bits is 0 for a
// sequential build and log2(partitions) for a parallel one, where every
// partition is inserted race-free by one worker; either way rows enter
// their table in ascending order, so chains — and with them every probe
// result — are identical at any fan-out.
//
// A JoinTable built by BuildPositionalJoinTable has the positional
// layout instead: no slots, but one head per key of a compact range,
// heads[k-base], over the same next chains. Only lookup tells the two
// apart, so every probe kernel is shared.
type JoinTable struct {
	parts []joinPart
	next  []int32 // build row -> next build row with same key, or -1
	bits  uint    // log2(len(parts))
	heads []int32 // positional layout: key - base -> first build row, or -1
	base  int64
}

// joinPart is one open-addressing table of a JoinTable.
type joinPart struct {
	slotKeys []int64 // slot -> key (valid when slotHead >= 0)
	slotHead []int32 // slot -> first (global) build row, or -1
	shift    uint
}

// partHash spreads keys over partitions with a multiplier independent of
// the slot hash, so partitioning does not drain entropy from the open
// addressing inside each partition. With bits == 0 the shift is the full
// word, which Go defines as 0: the single partition.
func partHash(k int64, bits uint) int {
	return int((uint64(k) * 0xBF58476D1CE4E5B9) >> (64 - bits))
}

// buildJoinPart inserts rows (ascending build-row ids; nil means every
// key, in order) into a fresh table, prepending duplicates to their
// key's chain in next.
func buildJoinPart(keys []int64, rows, next []int32) joinPart {
	n := len(rows)
	if rows == nil {
		n = len(keys)
	}
	capacity := nextPow2(n*2 + 1)
	jp := joinPart{
		slotKeys: make([]int64, capacity),
		slotHead: make([]int32, capacity),
		shift:    uint(64 - log2(capacity)),
	}
	for i := range jp.slotHead {
		jp.slotHead[i] = -1
	}
	mask := uint64(capacity - 1)
	for i := 0; i < n; i++ {
		r := int32(i)
		if rows != nil {
			r = rows[i]
		}
		k := keys[r]
		slot := hashKey(k, jp.shift) & mask
		for jp.slotHead[slot] >= 0 && jp.slotKeys[slot] != k {
			slot = (slot + 1) & mask
		}
		jp.slotKeys[slot] = k
		next[r] = jp.slotHead[slot]
		jp.slotHead[slot] = r
	}
	return jp
}

// BuildJoinTable indexes the build-side keys sequentially. keys[i] is
// the join key of build row i.
func BuildJoinTable(keys []int64, ctr *Counters) *JoinTable {
	jt := &JoinTable{next: make([]int32, len(keys))}
	jt.parts = []joinPart{buildJoinPart(keys, nil, jt.next)}
	jt.chargeBuild(ctr)
	return jt
}

// KeySpan returns the smallest key and the width of the key range,
// max − min + 1. ok is false when keys is empty or the width exceeds the
// largest int, so an array indexed by key − base cannot be allocated.
func KeySpan(keys []int64, ctr *Counters) (base int64, span int, ok bool) {
	ctr.SeqBytes += int64(len(keys)) * 8
	if len(keys) == 0 {
		return 0, 0, false
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo = min(lo, k)
		hi = max(hi, k)
	}
	d := uint64(hi - lo) // exact in uint64; the +1 may not be
	if d >= math.MaxInt {
		return 0, 0, false
	}
	return lo, int(d) + 1, true
}

// BuildPositionalJoinTable indexes build keys that all lie in [base,
// base+span), as KeySpan reports them, by position: the probe of key k is
// a bounds check and one load of heads[k-base]. Rows enter in ascending
// order and duplicates prepend to their chain, as in buildJoinPart, so it
// probes identically to BuildJoinTable(keys, ctr). The only possible error
// is the query's cancellation.
func BuildPositionalJoinTable(keys []int64, base int64, span int, ctr *Counters) (*JoinTable, error) {
	if err := ctr.sched.Err(); err != nil {
		return nil, err
	}
	jt := &JoinTable{next: make([]int32, len(keys)), heads: make([]int32, span), base: base}
	for i := range jt.heads {
		jt.heads[i] = -1
	}
	for r, k := range keys {
		h := &jt.heads[k-base]
		jt.next[r] = *h
		*h = int32(r)
	}
	ctr.SeqBytes += int64(span) * 4
	jt.chargeBuild(ctr)
	return jt, nil
}

// chargeBuild charges what every build pays: one random insert per row.
func (jt *JoinTable) chargeBuild(ctr *Counters) {
	ctr.HashBuildTuples += int64(len(jt.next))
	ctr.RandomAccesses += int64(len(jt.next))
	ctr.ObserveHashBytes(jt.SizeBytes())
}

// BuildJoinTableParallel indexes the build-side keys with up to workers
// goroutines, partitioning the keys so each partition's table is built
// race-free by one worker. Small inputs or workers <= 1 take the
// sequential build. The result probes identically to BuildJoinTable(keys,
// ctr). The only possible error is the query's cancellation, and it must
// propagate: a partially built table probes wrong, not slow.
func BuildJoinTableParallel(keys []int64, workers, morselRows int, ctr *Counters) (*JoinTable, error) {
	if workers <= 1 || len(keys) < parallelBuildMinRows {
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		return BuildJoinTable(keys, ctr), nil
	}
	p := workers
	if p > maxBuildPartitions {
		p = maxBuildPartitions
	}
	return buildJoinTableBits(keys, uint(log2(nextPow2(p))), workers, morselRows, ctr)
}

// buildJoinTableBits is the partitioned build at an explicit fan-out,
// without the size threshold, so tests can force it on small inputs.
func buildJoinTableBits(keys []int64, bits uint, workers, morselRows int, ctr *Counters) (*JoinTable, error) {
	n := len(keys)
	p := 1 << bits

	// Pass 1: per-morsel partition histograms.
	nm := NumMorsels(n, morselRows)
	counts := make([][]int32, nm)
	if err := runMorselsInfallible(workers, n, morselRows, ctr, func(m, lo, hi int, c *Counters) {
		cnt := make([]int32, p)
		for _, k := range keys[lo:hi] {
			cnt[partHash(k, bits)]++
		}
		counts[m] = cnt
	}); err != nil {
		return nil, err
	}

	// Prefix sums give every (morsel, partition) pair a disjoint write
	// window; filling windows in morsel order keeps each partition's row
	// list ascending, which preserves the sequential duplicate-chain
	// order.
	partRows := make([][]int32, p)
	offsets := make([][]int32, nm)
	cur := make([]int32, p)
	for m := 0; m < nm; m++ {
		off := make([]int32, p)
		copy(off, cur)
		offsets[m] = off
		for pi := 0; pi < p; pi++ {
			cur[pi] += counts[m][pi]
		}
	}
	for pi := 0; pi < p; pi++ {
		partRows[pi] = make([]int32, cur[pi])
	}

	// Pass 2: scatter global row indexes into their partitions. Write
	// cursors live in one flat backing array carved into disjoint
	// per-morsel windows, so the hot callback allocates nothing.
	posScratch := make([]int32, nm*p)
	if err := runMorselsInfallible(workers, n, morselRows, ctr, func(m, lo, hi int, c *Counters) {
		pos := posScratch[m*p : (m+1)*p]
		copy(pos, offsets[m])
		for i := lo; i < hi; i++ {
			pi := partHash(keys[i], bits)
			partRows[pi][pos[pi]] = int32(i)
			pos[pi]++
		}
	}); err != nil {
		return nil, err
	}

	// Pass 3: build every partition's table in parallel. Each partition
	// writes disjoint rows of the shared next array.
	jt := &JoinTable{parts: make([]joinPart, p), next: make([]int32, n), bits: bits}
	if err := runMorselsInfallible(workers, p, 1, ctr, func(pi, _, _ int, c *Counters) {
		jt.parts[pi] = buildJoinPart(keys, partRows[pi], jt.next)
	}); err != nil {
		return nil, err
	}

	jt.chargeBuild(ctr)
	// The two partition passes stream the keys twice and write one row
	// index per key — work the sequential build never does.
	ctr.MergeBytes += int64(n) * (8 + 8 + 4)
	return jt, nil
}

// SizeBytes reports the table's memory footprint.
//
//lint:allow costaccounting -- metadata sum over the fixed partition count, not data-path work
func (jt *JoinTable) SizeBytes() int64 {
	n := int64(len(jt.next)+len(jt.heads)) * 4
	for i := range jt.parts {
		n += int64(len(jt.parts[i].slotKeys))*8 + int64(len(jt.parts[i].slotHead))*4
	}
	return n
}

// NumBuildRows reports the number of indexed build rows.
func (jt *JoinTable) NumBuildRows() int { return len(jt.next) }

// Lookup returns the first build row whose key is k, or -1. Callers that
// need all duplicates follow the chain with Next. Unlike the batch probe
// methods, Lookup charges no counters; single-row callers (the
// execution-strategy interpreters) account for their own work.
func (jt *JoinTable) Lookup(k int64) int32 { return jt.lookup(k) }

// Next returns the next build row sharing row's key, or -1.
func (jt *JoinTable) Next(row int32) int32 { return jt.next[row] }

// CountMatches returns the number of build rows with key k.
//
//lint:allow costaccounting -- per-key helper; CountPerProbe charges the whole probe batch
func (jt *JoinTable) CountMatches(k int64) int64 {
	var n int64
	for b := jt.lookup(k); b >= 0; b = jt.next[b] {
		n++
	}
	return n
}

// lookup returns the first build row for key k, or -1. The positional
// bounds check wraps: a k below base lands beyond len(heads) too.
func (jt *JoinTable) lookup(k int64) int32 {
	if jt.heads != nil {
		if i := uint64(k - jt.base); i < uint64(len(jt.heads)) {
			return jt.heads[i]
		}
		return -1
	}
	return jt.lookupHashed(k)
}

// lookupHashed is lookup in the chained layout.
func (jt *JoinTable) lookupHashed(k int64) int32 {
	jp := &jt.parts[partHash(k, jt.bits)]
	mask := uint64(len(jp.slotKeys) - 1)
	slot := hashKey(k, jp.shift) & mask
	for {
		head := jp.slotHead[slot]
		if head < 0 {
			return -1
		}
		if jp.slotKeys[slot] == k {
			return head
		}
		slot = (slot + 1) & mask
	}
}

// InnerJoin implements JoinProber. Large probe sides run morsel by
// morsel, concatenating per-morsel match vectors in input order, so the
// output does not depend on the worker count.
func (jt *JoinTable) InnerJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	if err := jt.boundMatches(probeKeys, ctr); err != nil {
		return nil, nil, err
	}
	if workers <= 1 || len(probeKeys) < parallelProbeMinRows {
		if err := ctr.sched.Err(); err != nil {
			return nil, nil, err
		}
		return jt.innerJoin(probeKeys, ctr)
	}
	return jt.innerJoinMorsels(probeKeys, workers, morselRows, ctr)
}

// boundMatches refuses, before a pair is emitted, an inner join with more
// matches than int32 row ids address — which would otherwise allocate
// them all first, one morsel's chunks at a time. It costs nothing while
// probe rows × build rows fit an int32, and one pass over the duplicate
// chains while probe rows × the longest chain do; beyond that it counts
// the matches exactly, one lookup per probe row.
func (jt *JoinTable) boundMatches(probeKeys []int64, ctr *Counters) error {
	n := int64(len(jt.next))
	if int64(len(probeKeys))*n <= math.MaxInt32 {
		return nil
	}
	// chain[r] counts the build rows from r to its chain's end. Rows enter
	// in ascending order and prepend to their chain, so next[r] < r.
	chain := make([]int32, n)
	var longest int32
	for r, nx := range jt.next {
		chain[r] = 1
		if nx >= 0 {
			chain[r] += chain[nx]
		}
		longest = max(longest, chain[r])
	}
	ctr.SeqBytes += n * 8
	if int64(len(probeKeys))*int64(longest) <= math.MaxInt32 {
		return nil
	}
	var total int64
	for _, k := range probeKeys {
		if b := jt.lookup(k); b >= 0 {
			total += int64(chain[b])
		}
	}
	ctr.RandomAccesses += 2 * int64(len(probeKeys))
	return checkJoinMatches(total)
}

// innerJoinMorsels is InnerJoin without the size threshold.
func (jt *JoinTable) innerJoinMorsels(probeKeys []int64, workers, morselRows int, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	nm := NumMorsels(len(probeKeys), morselRows)
	bis := make([][]int32, nm)
	pis := make([][]int32, nm)
	if err := RunMorsels(workers, len(probeKeys), morselRows, ctr, func(m, lo, hi int, c *Counters) error {
		bi, pi, err := jt.innerJoin(probeKeys[lo:hi], c)
		for i := range pi {
			pi[i] += int32(lo)
		}
		bis[m], pis[m] = bi, pi
		return err
	}); err != nil {
		return nil, nil, err
	}
	buildIdx, err = concatMatches(bis)
	if err != nil {
		return nil, nil, err
	}
	probeIdx, _ = concatMatches(pis)
	ctr.MergeBytes += int64(len(buildIdx)) * 8
	return buildIdx, probeIdx, nil
}

// concatMatches assembles per-chunk (or per-morsel) row-id vectors into
// one exact-size vector, refusing — before it allocates — a total no
// int32 row id can address.
func concatMatches(chunks [][]int32) ([]int32, error) {
	var total int64
	for _, c := range chunks {
		total += int64(len(c))
	}
	if err := checkJoinMatches(total); err != nil {
		return nil, err
	}
	out := make([]int32, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// joinEmitChunkRows bounds the match buffers innerJoin fills before
// assembling the exact-size result.
const joinEmitChunkRows = 1 << 16

// innerJoin is the sequential inner-join kernel. It emits (build row,
// probe row) matches into fixed-size chunks, then assembles an
// exact-size result in one pass. The naive append-doubling emit recopies
// the whole match set on every growth — O(matches) hidden, uncharged
// traffic on large probes; chunking bounds the live buffer, copies each
// pair exactly once, and charges that copy. Probe rows are visited in
// order, duplicate build rows in chain (descending row) order. InnerJoin
// has bounded the output size before the walk starts.
func (jt *JoinTable) innerJoin(probeKeys []int64, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	first := len(probeKeys)
	if first > joinEmitChunkRows {
		first = joinEmitChunkRows
	}
	cb := make([]int32, 0, first)
	cp := make([]int32, 0, first)
	var doneB, doneP [][]int32
	for p, k := range probeKeys {
		for b := jt.lookup(k); b >= 0; b = jt.next[b] {
			if len(cb) == cap(cb) {
				doneB = append(doneB, cb) //lint:allow hotalloc -- chunk-list growth, once per 4096 emitted rows
				doneP = append(doneP, cp) //lint:allow hotalloc -- chunk-list growth, once per 4096 emitted rows
				cb = make([]int32, 0, joinEmitChunkRows)
				cp = make([]int32, 0, joinEmitChunkRows)
			}
			cb = append(cb, b)
			cp = append(cp, int32(p))
		}
	}
	buildIdx, probeIdx = cb, cp
	if len(doneB) > 0 {
		// More than one chunk: the assembly streams every emitted pair
		// exactly once.
		if buildIdx, err = concatMatches(append(doneB, cb)); err != nil {
			return nil, nil, err
		}
		probeIdx, _ = concatMatches(append(doneP, cp))
		ctr.SeqBytes += int64(len(buildIdx)) * 8
	}
	ctr.HashProbeTuples += int64(len(probeKeys))
	ctr.RandomAccesses += int64(len(probeKeys)) + int64(len(buildIdx))
	return buildIdx, probeIdx, nil
}

// SemiJoin implements JoinProber.
func (jt *JoinTable) SemiJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int32, error) {
	return jt.selJoin(probeKeys, true, workers, morselRows, ctr)
}

// AntiJoin implements JoinProber.
func (jt *JoinTable) AntiJoin(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int32, error) {
	return jt.selJoin(probeKeys, false, workers, morselRows, ctr)
}

// selJoin returns the probe rows whose matched-ness equals want: the
// semi join (true) and the anti join (false).
func (jt *JoinTable) selJoin(probeKeys []int64, want bool, workers, morselRows int, ctr *Counters) ([]int32, error) {
	if workers <= 1 || len(probeKeys) < parallelProbeMinRows {
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		return jt.selRows(probeKeys, want, ctr), nil
	}
	return jt.selJoinMorsels(probeKeys, want, workers, morselRows, ctr)
}

// selJoinMorsels is selJoin without the size threshold.
func (jt *JoinTable) selJoinMorsels(probeKeys []int64, want bool, workers, morselRows int, ctr *Counters) ([]int32, error) {
	sels := make([][]int32, NumMorsels(len(probeKeys), morselRows))
	if err := runMorselsInfallible(workers, len(probeKeys), morselRows, ctr, func(m, lo, hi int, c *Counters) {
		sel := jt.selRows(probeKeys[lo:hi], want, c)
		for i := range sel {
			sel[i] += int32(lo)
		}
		sels[m] = sel
	}); err != nil {
		return nil, err
	}
	out, _ := concatMatches(sels) // at most one id per probe row
	ctr.MergeBytes += int64(len(out)) * 4
	return out, nil
}

// selRows is the sequential semi/anti kernel.
func (jt *JoinTable) selRows(probeKeys []int64, want bool, ctr *Counters) []int32 {
	out := make([]int32, 0, len(probeKeys))
	for p, k := range probeKeys {
		if (jt.lookup(k) >= 0) == want {
			out = append(out, int32(p))
		}
	}
	ctr.HashProbeTuples += int64(len(probeKeys))
	ctr.RandomAccesses += int64(len(probeKeys))
	return out
}

// CountPerProbe implements JoinProber.
func (jt *JoinTable) CountPerProbe(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int64, error) {
	if workers <= 1 || len(probeKeys) < parallelProbeMinRows {
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		return jt.countRows(probeKeys, ctr), nil
	}
	return jt.countPerProbeMorsels(probeKeys, workers, morselRows, ctr)
}

// countPerProbeMorsels is CountPerProbe without the size threshold.
func (jt *JoinTable) countPerProbeMorsels(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int64, error) {
	out := make([]int64, len(probeKeys))
	if err := runMorselsInfallible(workers, len(probeKeys), morselRows, ctr, func(m, lo, hi int, c *Counters) {
		copy(out[lo:hi], jt.countRows(probeKeys[lo:hi], c))
	}); err != nil {
		return nil, err
	}
	ctr.MergeBytes += int64(len(probeKeys)) * 8
	return out, nil
}

// countRows is the sequential count-per-probe kernel.
func (jt *JoinTable) countRows(probeKeys []int64, ctr *Counters) []int64 {
	out := make([]int64, len(probeKeys))
	var matches int64
	for p, k := range probeKeys {
		var n int64
		for b := jt.lookup(k); b >= 0; b = jt.next[b] {
			n++
		}
		out[p] = n
		matches += n
	}
	ctr.HashProbeTuples += int64(len(probeKeys))
	ctr.RandomAccesses += int64(len(probeKeys)) + matches
	return out
}

func log2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}
