package exec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// its build side: the chained or positional JoinTable, or the plan
// layer's spill joiner, whose radix partitions — resident or on disk —
// each build a chained JoinTable over one shared next array. All
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

// maxBuildPartitions caps the partition fan-out of a parallel build.
const maxBuildPartitions = 64

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
// sequential build and log2(partitions) for a parallel one, whose keys
// RadixPartitionKeys scatters and RadixOf routes, and where every
// partition is inserted race-free by one worker; either way rows enter
// their table in ascending order, so chains — and with them every probe
// result — are identical at any fan-out.
//
// A JoinTable built by BuildPositionalJoinTable has the positional
// layout instead: no slots, but one head per key of a compact range,
// heads[k-base], over the same next chains; every probe kernel is shared
// and picks its layout's lookup once, outside its row loop. A build
// records whether its keys are unique (a spill partition's table leaves
// unique false); a unique build's inner join does not walk next.
type JoinTable struct {
	parts  []joinPart
	next   []int32 // build row -> next build row with same key, or -1
	bits   uint    // log2(len(parts))
	heads  []int32 // positional layout: key - base -> first build row, or -1
	base   int64
	unique bool // no key has two build rows
}

// joinPart is one open-addressing table of a JoinTable.
type joinPart struct {
	slotKeys []int64 // slot -> key (valid when slotHead >= 0)
	slotHead []int32 // slot -> first (global) build row, or -1
	shift    uint
}

// newJoinPart returns an empty table sized for n build rows.
func newJoinPart(n int) joinPart {
	capacity := nextPow2(n*2 + 1)
	jp := joinPart{
		slotKeys: make([]int64, capacity),
		slotHead: make([]int32, capacity),
		shift:    uint(64 - log2(capacity)),
	}
	for i := range jp.slotHead {
		jp.slotHead[i] = -1
	}
	return jp
}

// insert finds key k's slot and prepends build row r to its chain in
// next — the one per-row insert of every hashed build — and reports
// whether k was new.
func (jp *joinPart) insert(k int64, r int32, next []int32) bool {
	mask := uint64(len(jp.slotKeys) - 1)
	slot := hashKey(k, jp.shift) & mask
	for jp.slotHead[slot] >= 0 && jp.slotKeys[slot] != k {
		slot = (slot + 1) & mask
	}
	jp.slotKeys[slot] = k
	next[r] = jp.slotHead[slot]
	jp.slotHead[slot] = r
	return next[r] < 0
}

// buildJoinPart inserts keys into a fresh table, key i as build row
// rows[i] (ascending; nil means row i), prepending duplicates to their
// key's chain in next, and reports whether every key was new.
func buildJoinPart(keys []int64, rows, next []int32) (jp joinPart, unique bool) {
	jp, unique = newJoinPart(len(keys)), true
	for i, k := range keys {
		r := int32(i)
		if rows != nil {
			r = rows[i]
		}
		unique = jp.insert(k, r, next) && unique
	}
	return jp, unique
}

// BuildJoinTable indexes the build-side keys sequentially. keys[i] is
// the join key of build row i.
func BuildJoinTable(keys []int64, ctr *Counters) *JoinTable {
	jt := &JoinTable{next: make([]int32, len(keys))}
	jp, unique := buildJoinPart(keys, nil, jt.next)
	jt.parts, jt.unique = []joinPart{jp}, unique
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
	jt := &JoinTable{next: make([]int32, len(keys)), heads: make([]int32, span), base: base, unique: true}
	for i := range jt.heads {
		jt.heads[i] = -1
	}
	for r, k := range keys {
		h := &jt.heads[k-base]
		jt.next[r] = *h
		jt.unique = *h < 0 && jt.unique
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
// race-free by one worker; where Serial says so, it is the sequential
// build. The result probes identically to BuildJoinTable(keys, ctr). The
// only possible error is the query's cancellation, and it must
// propagate: a partially built table probes wrong, not slow.
func BuildJoinTableParallel(keys []int64, workers, morselRows int, ctr *Counters) (*JoinTable, error) {
	if Serial(workers, len(keys), morselRows) {
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		return BuildJoinTable(keys, ctr), nil
	}
	p := min(workers, maxBuildPartitions)
	return buildJoinTableBits(keys, uint(log2(nextPow2(p))), workers, morselRows, ctr)
}

// buildJoinTableBits is the partitioned build at an explicit fan-out, so
// tests can set the fan-out independently of the worker count. The spill
// joiner's partitioner, RadixPartitionKeys, scatters the keys and charges
// its own passes; its scatter is stable, so every partition's rows enter
// its table in ascending order, and each partition writes disjoint rows
// of the shared next array.
func buildJoinTableBits(keys []int64, bits uint, workers, morselRows int, ctr *Counters) (*JoinTable, error) {
	rp, err := RadixPartitionKeys(keys, bits, workers, morselRows, ctr)
	if err != nil {
		return nil, err
	}
	p := rp.NumPartitions()
	jt := &JoinTable{parts: make([]joinPart, p), next: make([]int32, len(keys)), bits: bits}
	unique := make([]bool, p)
	if err := runMorselsInfallible(workers, p, 1, ctr, func(pi, _, _ int, c *Counters) {
		lo, hi := rp.Off[pi], rp.Off[pi+1]
		jt.parts[pi], unique[pi] = buildJoinPart(rp.Keys[lo:hi], rp.Rows[lo:hi], jt.next)
	}); err != nil {
		return nil, err
	}
	jt.unique = !slices.Contains(unique, false)
	jt.chargeBuild(ctr)
	return jt, nil
}

// SizeBytes reports the table's memory footprint.
//
//lint:allow pathcost -- metadata sum over the fixed partition count, not data-path work
func (jt *JoinTable) SizeBytes() int64 {
	n := int64(len(jt.next)+len(jt.heads)) * 4
	for i := range jt.parts {
		n += int64(len(jt.parts[i].slotKeys))*8 + int64(len(jt.parts[i].slotHead))*4
	}
	return n
}

// Lookup returns the first build row whose key is k, or -1. Callers that
// need all duplicates follow the chain with Next. Unlike the batch probe
// methods, Lookup charges no counters; single-row callers (the
// execution-strategy interpreters) account for their own work.
func (jt *JoinTable) Lookup(k int64) int32 { return jt.lookup(k) }

// Next returns the next build row sharing row's key, or -1.
func (jt *JoinTable) Next(row int32) int32 { return jt.next[row] }

// CountMatches returns the number of build rows with key k.
//
//lint:allow pathcost -- per-key helper; CountPerProbe charges the whole probe batch
func (jt *JoinTable) CountMatches(k int64) int64 {
	var n int64
	for b := jt.lookup(k); b >= 0; b = jt.next[b] {
		n++
	}
	return n
}

// lookup returns the first build row for key k, or -1: one row's probe.
func (jt *JoinTable) lookup(k int64) int32 {
	if jt.heads != nil {
		return lookupPositional(jt.heads, jt.base, k)
	}
	return jt.lookupHashed(k)
}

// lookupPositional is lookup in the positional layout. The bounds check
// wraps: a k below base lands beyond len(heads) too.
func lookupPositional(heads []int32, base, k int64) int32 {
	if i := uint64(k - base); i < uint64(len(heads)) {
		return heads[i]
	}
	return -1
}

// lookupHashed is lookup in the chained layout.
func (jt *JoinTable) lookupHashed(k int64) int32 {
	jp := &jt.parts[RadixOf(k, jt.bits)]
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
	if Serial(workers, len(probeKeys), morselRows) {
		if err := ctr.sched.Err(); err != nil {
			return nil, nil, err
		}
		return jt.innerJoin(probeKeys, 0, ctr)
	}
	nm := NumMorsels(len(probeKeys), morselRows)
	bis := make([][]int32, nm)
	pis := make([][]int32, nm)
	if err := RunMorsels(workers, len(probeKeys), morselRows, ctr, func(m, lo, hi int, c *Counters) error {
		var err error
		bis[m], pis[m], err = jt.innerJoin(probeKeys[lo:hi], int32(lo), c)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if buildIdx, err = ConcatMatches(bis); err != nil {
		return nil, nil, err
	}
	probeIdx, _ = ConcatMatches(pis)
	ctr.MergeBytes += int64(len(buildIdx)) * 8
	return buildIdx, probeIdx, nil
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

// ConcatMatches assembles per-chunk (or per-morsel) row-id vectors, in
// order, into one exact-size vector (a lone chunk as it is), refusing —
// before it allocates — a total no int32 row id can address. The result
// is never nil, even when empty, so it serves as a selection too.
//
//lint:allow pathcost -- each caller charges the copy as MergeBytes at its own width (a join's pairs, a selection's ids)
func ConcatMatches(chunks [][]int32) ([]int32, error) {
	if len(chunks) == 1 && chunks[0] != nil {
		return chunks[0], nil
	}
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

// joinEmitChunkRows bounds the probe kernels' scratch, and so the key
// chunks a sequential probe walks, and innerJoin's emit chunks.
const joinEmitChunkRows = 1 << 16

// firstMatches is the branch-free row loop of the inner and count probes:
// it writes each probe row's first build row and the row, offset by off,
// to bi[m] and pi[m], and advances m by whether the row matched.
func firstMatches(bi, pi []int32, keys []int64, off int32, lookup func(k int64) int32) int {
	m := 0
	for p, k := range keys {
		b := lookup(k)
		bi[m] = b
		pi[m] = off + int32(p)
		m += int(b2i(b >= 0))
	}
	return m
}

// keepProbes is the semi and anti probes' loop, keepRows' twin: it keeps
// the probe rows (offset by off) whose matched-ness equals want.
func keepProbes(out []int32, keys []int64, off int32, want bool, lookup func(k int64) int32) int {
	m := 0
	for p, k := range keys {
		out[m] = off + int32(p)
		m += int(b2i((lookup(k) >= 0) == want))
	}
	return m
}

// probeFirst runs firstMatches with the table's lookup, both inlined.
func (jt *JoinTable) probeFirst(bi, pi []int32, keys []int64, off int32) int {
	if heads, base := jt.heads, jt.base; heads != nil {
		return firstMatches(bi, pi, keys, off, func(k int64) int32 { return lookupPositional(heads, base, k) })
	}
	return firstMatches(bi, pi, keys, off, func(k int64) int32 { return jt.lookupHashed(k) })
}

// probeKeep runs keepProbes with the table's lookup, both inlined.
func (jt *JoinTable) probeKeep(out []int32, keys []int64, off int32, want bool) int {
	if heads, base := jt.heads, jt.base; heads != nil {
		return keepProbes(out, keys, off, want, func(k int64) int32 { return lookupPositional(heads, base, k) })
	}
	return keepProbes(out, keys, off, want, func(k int64) int32 { return jt.lookupHashed(k) })
}

// innerJoin is the sequential inner-join kernel; probe row p is reported
// as off+p. It finds each key chunk's first matches in its runner's scratch. On
// a unique build they are the result, copied out at exact size; else it
// walks every match's chain into fixed-size emit chunks (append-doubling
// would recopy the match set on every growth), duplicate build rows in
// descending row order. Either way an output of more than the first emit
// chunk is assembled in one charged pass. InnerJoin has bounded the
// output size before the walk starts.
func (jt *JoinTable) innerJoin(probeKeys []int64, off int32, ctr *Counters) (buildIdx, probeIdx []int32, err error) {
	first := min(len(probeKeys), joinEmitChunkRows)
	sb, sp := lendSel(ctr, first), lendSel(ctr, first)
	doneB, doneP := make([][]int32, 0, 1), make([][]int32, 0, 1) // one key chunk: on the stack
	var cb, cp []int32
	if !jt.unique {
		cb, cp = make([]int32, 0, first), make([]int32, 0, first)
	}
	for lo := 0; lo < len(probeKeys); lo += joinEmitChunkRows {
		m := jt.probeFirst(sb, sp, probeKeys[lo:min(lo+joinEmitChunkRows, len(probeKeys))], off+int32(lo))
		if jt.unique {
			// One exact-size copy per chunk of joinEmitChunkRows probe rows.
			doneB = append(doneB, append([]int32{}, sb[:m]...))
			doneP = append(doneP, append([]int32{}, sp[:m]...))
			continue
		}
		for j, h := range sb[:m] {
			for b := h; b >= 0; b = jt.next[b] {
				if len(cb) == cap(cb) {
					doneB = append(doneB, cb)
					doneP = append(doneP, cp)
					cb = make([]int32, 0, joinEmitChunkRows)
					cp = make([]int32, 0, joinEmitChunkRows)
				}
				cb = append(cb, b)
				cp = append(cp, sp[j])
			}
		}
	}
	giveSel(ctr, sb)
	giveSel(ctr, sp)
	if cb != nil {
		doneB, doneP = append(doneB, cb), append(doneP, cp)
	}
	if buildIdx, err = ConcatMatches(doneB); err != nil {
		return nil, nil, err
	}
	probeIdx, _ = ConcatMatches(doneP)
	if len(buildIdx) > first {
		// The assembly streams every emitted pair exactly once.
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
	if Serial(workers, len(probeKeys), morselRows) {
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		return jt.selRows(probeKeys, 0, want, ctr), nil
	}
	sels := make([][]int32, NumMorsels(len(probeKeys), morselRows))
	if err := runMorselsInfallible(workers, len(probeKeys), morselRows, ctr, func(m, lo, hi int, c *Counters) {
		sels[m] = jt.selRows(probeKeys[lo:hi], int32(lo), want, c)
	}); err != nil {
		return nil, err
	}
	out, _ := ConcatMatches(sels) // at most one id per probe row
	ctr.MergeBytes += int64(len(out)) * 4
	return out, nil
}

// selRows is the sequential semi/anti kernel; probe row p is reported as
// off+p.
func (jt *JoinTable) selRows(probeKeys []int64, off int32, want bool, ctr *Counters) []int32 {
	s := lendSel(ctr, min(len(probeKeys), joinEmitChunkRows))
	kept := make([][]int32, 0, 1) // one key chunk: on the stack
	for lo := 0; lo < len(probeKeys); lo += joinEmitChunkRows {
		m := jt.probeKeep(s, probeKeys[lo:min(lo+joinEmitChunkRows, len(probeKeys))], off+int32(lo), want)
		kept = append(kept, append([]int32{}, s[:m]...))
	}
	giveSel(ctr, s)
	out, _ := ConcatMatches(kept) // at most one id per probe row
	ctr.HashProbeTuples += int64(len(probeKeys))
	ctr.RandomAccesses += int64(len(probeKeys))
	return out
}

// CountPerProbe implements JoinProber.
func (jt *JoinTable) CountPerProbe(probeKeys []int64, workers, morselRows int, ctr *Counters) ([]int64, error) {
	out := make([]int64, len(probeKeys))
	if Serial(workers, len(probeKeys), morselRows) {
		if err := ctr.sched.Err(); err != nil {
			return nil, err
		}
		jt.countRows(out, probeKeys, ctr)
		return out, nil
	}
	if err := runMorselsInfallible(workers, len(probeKeys), morselRows, ctr, func(m, lo, hi int, c *Counters) {
		jt.countRows(out[lo:hi], probeKeys[lo:hi], c)
	}); err != nil {
		return nil, err
	}
	ctr.MergeBytes += int64(len(probeKeys)) * 8
	return out, nil
}

// countRows is the sequential count-per-probe kernel: it writes the
// match count of each matching probe row into out, which starts zeroed.
func (jt *JoinTable) countRows(out []int64, probeKeys []int64, ctr *Counters) {
	first := min(len(probeKeys), joinEmitChunkRows)
	sb, sp := lendSel(ctr, first), lendSel(ctr, first)
	var matches int64
	for lo := 0; lo < len(probeKeys); lo += joinEmitChunkRows {
		m := jt.probeFirst(sb, sp, probeKeys[lo:min(lo+joinEmitChunkRows, len(probeKeys))], int32(lo))
		for j, h := range sb[:m] {
			for b := h; b >= 0; b = jt.next[b] {
				out[sp[j]]++
				matches++
			}
		}
	}
	giveSel(ctr, sb)
	giveSel(ctr, sp)
	ctr.HashProbeTuples += int64(len(probeKeys))
	ctr.RandomAccesses += int64(len(probeKeys)) + matches
}

func log2(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}
