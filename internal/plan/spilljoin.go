package plan

import (
	"fmt"

	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/spill"
)

// Budget-bounded spill join. When a hash join's build+probe state would
// not fit the query's memory budget, buildJoin picks the compact layout
// (exec.PartTable per radix partition) with the partition as the spill
// unit: both sides are partitioned with the same fan-out, a resident
// prefix of partitions stays in memory, and the partitions beyond it go
// to the on-disk spill area — one segment per side, since the scatter
// leaves them contiguous. The degradation is planned and priced —
// charged sequential spill I/O instead of the cliff-edge swap model —
// and the output is byte-identical to the in-memory join, because it is
// the in-memory join's kernels that run: the spill joiner is the second
// driver of the per-partition probe kernels exec.RadixJoinTable drives
// over resident partitions, and owns only residency, segments and spans.
//
// Every join kind visits a partition once: its segment range is read
// once, its table built once, each probe key looked up once. The inner
// join can afford that because its count pass leaves, per probe row, the
// match count and the start of the matched group in one payload array
// covering the whole build side (4 bytes per build row, each partition's
// table packing into its own window), so exec.FillMatches fills the
// output from the payload alone, with no table and no partition in
// sight. Partitions run as morsels: the resident ones at full
// parallelism against tables built once with the joiner, the spilled
// ones with at most spilledInFlight read back at a time.
//
// The spill decision depends only on input cardinalities and the budget
// — never on Workers — so results stay bit-identical at every degree of
// parallelism and across cluster re-dispatch (the budget ships with
// LoadRequest so re-planned partitions decide identically).

const (
	// spillBuildBytesPerRow is a build row's resident footprint:
	// partitioned key+row (12) plus its share of the partition table.
	spillBuildBytesPerRow = 12 + exec.RadixBuildBytesPerRow
	// spillProbeBytesPerRow is a probe row's resident footprint:
	// partitioned key+row.
	spillProbeBytesPerRow = 12
)

// joinStateBytes estimates the resident footprint of a fully in-memory
// hash join of the given cardinalities.
func joinStateBytes(buildRows, probeRows int) int64 {
	return int64(buildRows)*spillBuildBytesPerRow + int64(probeRows)*spillProbeBytesPerRow
}

// useSpillJoin reports whether a join of the given cardinalities must
// take the spill path: spilling is enabled, a budget is set, and the
// join state would claim more than half the budget (the other half is
// the query's base columns and intermediates).
func (c *Context) useSpillJoin(buildRows, probeRows int) bool {
	return c.SpillDir != "" && c.spillOK && c.MemLimitBytes > 0 &&
		joinStateBytes(buildRows, probeRows) > c.MemLimitBytes/2
}

// spillBits picks the fan-out that brings one partition's share of the
// join state under a quarter of the budget, so a partition's build
// table, probe entries, and working state fit comfortably inside the
// resident half.
func spillBits(buildRows, probeRows int, budget int64) uint {
	state := joinStateBytes(buildRows, probeRows)
	target := budget / 4
	if target <= 0 {
		return exec.MaxRadixBits
	}
	var bits uint
	for state>>bits > target && bits < exec.MaxRadixBits {
		bits++
	}
	return bits
}

// spilledInFlight bounds the spilled partitions read back at any moment:
// one being probed while the next is read. spillBits sizes a partition's
// state to a quarter of the budget, so two of them fill the half of the
// budget the join may claim; a third would not fit, and one would leave
// the I/O and the probe taking turns.
const spilledInFlight = 2

// spillJoiner is the budget-bounded exec.JoinProber: the compact join
// layout with its beyond-budget partitions spilled to disk.
type spillJoiner struct {
	ctx      *Context
	resident int // partitions < resident stay in memory
	// rp is the partitioned build side: Off spans every partition, Keys
	// and Rows hold the resident prefix only.
	rp      *exec.RadixPartitions
	seg     *spill.Segment   // the build partitions beyond the prefix; nil when they are empty
	tables  []exec.PartTable // the resident partitions' tables
	payload []int32          // build rows grouped by key; partition p packs into [Off[p], Off[p+1])
}

// buildSpillJoiner partitions the build keys, spills the partitions
// beyond the resident budget and builds the tables of the others.
func (c *Context) buildSpillJoiner(bk []int64, probeRows int) (*spillJoiner, error) {
	bits := spillBits(len(bk), probeRows, c.MemLimitBytes)
	sp := c.Trace.Begin("spill-partition",
		fmt.Sprintf("radix %d-way, budget %s", 1<<bits, spill.FormatByteSize(c.MemLimitBytes)))
	sj, err := c.partitionBuild(bk, probeRows, bits)
	if err != nil {
		c.Trace.EndErr(sp)
		return nil, err
	}
	c.Ctr.ObserveResidentCap(c.MemLimitBytes)
	c.Trace.End(sp, int64(len(bk)), sj.seg.SizeBytes())
	if err := sj.buildResident(); err != nil {
		return nil, err
	}
	return sj, nil
}

// partitionBuild scatters the build keys, picks the resident prefix and
// spills the rest.
func (c *Context) partitionBuild(bk []int64, probeRows int, bits uint) (*spillJoiner, error) {
	rp, err := exec.RadixPartitionKeys(bk, nil, bits, c.workers(), c.morselRows(), c.Ctr)
	if err != nil {
		return nil, err
	}
	// Resident prefix: partitions fit in memory until their cumulative
	// build state plus a uniform probe estimate crosses half the budget.
	// The boundary depends only on the build's partition sizes and the
	// budget, so every engine and every re-dispatch picks the same one.
	estProbePart := int64(probeRows) * spillProbeBytesPerRow >> bits
	budget := c.MemLimitBytes / 2
	var used int64
	resident := 0
	for ; resident < rp.NumPartitions(); resident++ {
		b := int64(rp.Off[resident+1]-rp.Off[resident])*spillBuildBytesPerRow + estProbePart
		if used+b > budget {
			break
		}
		used += b
	}
	return c.newSpillJoiner(rp, resident)
}

// newSpillJoiner takes over the partitioned build side rp, of which the
// first resident partitions stay in memory.
func (c *Context) newSpillJoiner(rp *exec.RadixPartitions, resident int) (*spillJoiner, error) {
	sj := &spillJoiner{ctx: c, resident: resident, rp: rp, payload: make([]int32, len(rp.Rows))}
	var err error
	sj.seg, err = sj.spillTail(rp, c.Ctr)
	return sj, err
}

// spillTail moves the partitions of rp beyond the resident prefix to
// the spill area — the scatter left them contiguous, so they are one
// segment, two writes — and trims rp to right-sized copies of the prefix,
// so that the scatter's arrays, spilled rows included, become garbage and
// the budget buys memory, not only I/O. A side with nothing beyond the
// prefix is left as it is and has no segment.
func (sj *spillJoiner) spillTail(rp *exec.RadixPartitions, ctr *exec.Counters) (*spill.Segment, error) {
	cut := int(rp.Off[sj.resident])
	if cut == len(rp.Keys) {
		return nil, nil
	}
	area, err := sj.ctx.area()
	if err != nil {
		return nil, err
	}
	seg, err := area.WriteSegment(sj.ctx.Sched.Context(), rp.Keys[cut:], rp.Rows[cut:], ctr)
	if err != nil {
		return nil, err
	}
	keys, rows := make([]int64, cut), make([]int32, cut)
	copy(keys, rp.Keys)
	copy(rows, rp.Rows)
	rp.Keys, rp.Rows = keys, rows
	ctr.SeqBytes += int64(cut) * 2 * 12
	return seg, nil
}

// buildResident builds the tables of the resident partitions, once for
// every probe of the joiner.
func (sj *spillJoiner) buildResident() error {
	sj.tables = make([]exec.PartTable, sj.resident)
	return exec.RunMorsels(sj.ctx.workers(), sj.resident, 1, sj.ctx.Ctr, func(p, _, _ int, c *exec.Counters) error {
		lo, hi := sj.rp.Off[p], sj.rp.Off[p+1]
		sj.tables[p] = exec.BuildPartTable(sj.rp.Keys[lo:hi], sj.rp.Rows[lo:hi], sj.payload[lo:hi], c)
		return nil
	})
}

// partKernel is one per-partition probe kernel: partition p's table and
// its probe keys with their original probe-row ids.
type partKernel func(p int, pt *exec.PartTable, pkeys []int64, prows []int32, c *exec.Counters)

// partBuf holds one spilled partition read back: both sides of it.
type partBuf struct {
	bkeys, pkeys []int64
	brows, prows []int32
}

// probePass partitions the probe side like the build side and runs fn
// once over every partition, partitions being the morsels (kernels write
// disjoint probe rows of their outputs): a resident partition against its
// kept table, a spilled one read back into one of spilledInFlight buffers
// — each sized to the largest spilled partition and reused — with its
// table built there and then. The buffers double as the semaphore that
// bounds the spilled partitions in memory whatever the worker count.
func (sj *spillJoiner) probePass(pk []int64, w, mr int, ctr *exec.Counters, fn partKernel) error {
	pp, err := exec.RadixPartitionKeys(pk, nil, sj.rp.Bits, w, mr, ctr)
	if err != nil {
		return err
	}
	pseg, err := sj.spillTail(pp, ctr)
	if err != nil {
		return err
	}
	defer pseg.Close()
	np := pp.NumPartitions()
	var maxBuild, maxProbe int32
	for p := sj.resident; p < np; p++ {
		maxBuild = max(maxBuild, sj.rp.Off[p+1]-sj.rp.Off[p])
		maxProbe = max(maxProbe, pp.Off[p+1]-pp.Off[p])
	}
	bufs := make(chan *partBuf, spilledInFlight)
	for i := 0; i < max(1, min(w, spilledInFlight)); i++ { // one worker holds one buffer
		bufs <- &partBuf{
			bkeys: make([]int64, maxBuild), brows: make([]int32, maxBuild),
			pkeys: make([]int64, maxProbe), prows: make([]int32, maxProbe),
		}
	}
	return exec.RunMorsels(w, np, 1, ctr, func(p, _, _ int, c *exec.Counters) error {
		if p < sj.resident {
			lo, hi := pp.Off[p], pp.Off[p+1]
			fn(p, &sj.tables[p], pp.Keys[lo:hi], pp.Rows[lo:hi], c)
			return nil
		}
		buf := <-bufs
		err := sj.spilledPart(p, pp, pseg, buf, c, fn)
		bufs <- buf
		return err
	})
}

// spilledPart reads spilled partition p of both sides into buf, builds
// its table into the partition's payload window and runs fn over it.
func (sj *spillJoiner) spilledPart(p int, pp *exec.RadixPartitions, pseg *spill.Segment, buf *partBuf, c *exec.Counters, fn partKernel) error {
	sctx := sj.ctx.Sched.Context()
	lo, hi := sj.rp.Off[p], sj.rp.Off[p+1]
	bkeys, brows := buf.bkeys[:hi-lo], buf.brows[:hi-lo]
	if err := sj.seg.ReadAt(sctx, int(lo-sj.rp.Off[sj.resident]), bkeys, brows, c); err != nil {
		return err
	}
	plo, phi := pp.Off[p], pp.Off[p+1]
	pkeys, prows := buf.pkeys[:phi-plo], buf.prows[:phi-plo]
	if err := pseg.ReadAt(sctx, int(plo-pp.Off[sj.resident]), pkeys, prows, c); err != nil {
		return err
	}
	pt := exec.BuildPartTable(bkeys, brows, sj.payload[lo:hi], c)
	fn(p, &pt, pkeys, prows, c)
	return nil
}

// beginProbe opens the spill-probe span of one probe; endProbe closes it
// on the probe's outcome, rows of width bytes each.
func (sj *spillJoiner) beginProbe(kind string) *obs.Span {
	return sj.ctx.Trace.Begin("spill-probe",
		fmt.Sprintf("%s, %d partitions (%d resident)", kind, sj.rp.NumPartitions(), sj.resident))
}

func (sj *spillJoiner) endProbe(sp *obs.Span, rows, width int, err error) {
	if err != nil {
		sj.ctx.Trace.EndErr(sp)
		return
	}
	sj.ctx.Trace.End(sp, int64(rows), int64(rows)*int64(width))
}

// InnerJoin implements exec.JoinProber: the count pass over the
// partitions, then the fill sweep over the probe rows.
func (sj *spillJoiner) InnerJoin(pk []int64, w, mr int, ctr *exec.Counters) (bi, pi []int32, err error) {
	sp := sj.beginProbe("inner")
	counts := make([]int32, len(pk))
	first := make([]int32, len(pk))
	err = sj.probePass(pk, w, mr, ctr, func(p int, pt *exec.PartTable, pkeys []int64, prows []int32, c *exec.Counters) {
		pt.CountMatches(pkeys, prows, sj.rp.Off[p], counts, first, c)
	})
	if err == nil {
		bi, pi, err = exec.FillMatches(sj.payload, counts, first, w, mr, ctr)
	}
	sj.endProbe(sp, len(bi), 8, err)
	return bi, pi, err
}

// SemiJoin implements exec.JoinProber.
func (sj *spillJoiner) SemiJoin(pk []int64, w, mr int, ctr *exec.Counters) ([]int32, error) {
	return sj.selJoin("semi", true, pk, w, mr, ctr)
}

// AntiJoin implements exec.JoinProber.
func (sj *spillJoiner) AntiJoin(pk []int64, w, mr int, ctr *exec.Counters) ([]int32, error) {
	return sj.selJoin("anti", false, pk, w, mr, ctr)
}

// selJoin flags the probe rows that match and collects those whose flag
// equals want.
func (sj *spillJoiner) selJoin(kind string, want bool, pk []int64, w, mr int, ctr *exec.Counters) ([]int32, error) {
	sp := sj.beginProbe(kind)
	hit := make([]bool, len(pk))
	err := sj.probePass(pk, w, mr, ctr, func(_ int, pt *exec.PartTable, pkeys []int64, prows []int32, c *exec.Counters) {
		pt.FlagMatches(pkeys, prows, hit, c)
	})
	var out []int32
	if err == nil {
		out = exec.CollectFlags(hit, want, ctr)
	}
	sj.endProbe(sp, len(out), 4, err)
	return out, err
}

// CountPerProbe implements exec.JoinProber.
func (sj *spillJoiner) CountPerProbe(pk []int64, w, mr int, ctr *exec.Counters) ([]int64, error) {
	sp := sj.beginProbe("left-count")
	out := make([]int64, len(pk))
	err := sj.probePass(pk, w, mr, ctr, func(_ int, pt *exec.PartTable, pkeys []int64, prows []int32, c *exec.Counters) {
		pt.CountPerProbe(pkeys, prows, out, c)
	})
	if err == nil {
		ctr.SeqBytes += int64(len(pk)) * 8
	}
	sj.endProbe(sp, len(pk), 8, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Spillable reports whether a plan contains an operator the spill
// scheduler can bound under a memory budget. Callers use it to predict
// budget semantics: spillable plans degrade through disk, the rest are
// cancelled with *MemLimitError once they cross the budget.
func Spillable(n Node) bool { return hasSpillableJoin(n) }

// hasSpillableJoin reports whether a compiled plan contains an operator
// the spill scheduler can bound — a hash join in either engine. Queries
// without one keep PR 9's MemLimitError behavior: there is nothing to
// spill, so the budget can only be enforced by cancellation. Unknown
// node types answer false (conservative: the budget still cancels).
func hasSpillableJoin(n Node) bool {
	switch v := n.(type) {
	case *HashJoin:
		return true
	case *Scan:
		return false
	case *Filter:
		return hasSpillableJoin(v.Input)
	case *Project:
		return hasSpillableJoin(v.Input)
	case *Rename:
		return hasSpillableJoin(v.Input)
	case *Limit:
		return hasSpillableJoin(v.Input)
	case *OrderBy:
		return hasSpillableJoin(v.Input)
	case *GroupBy:
		return hasSpillableJoin(v.Input)
	case *KeyFilter:
		return hasSpillableJoin(v.Input)
	case *spanNode:
		return hasSpillableJoin(v.inner)
	case *Fused:
		for _, st := range v.stages {
			if _, ok := st.(probeStage); ok {
				return true
			}
		}
		if v.input != nil && hasSpillableJoin(v.input) {
			return true
		}
		return v.fallback != nil && hasSpillableJoin(v.fallback)
	case ChildNodes:
		for _, c := range v.Children() {
			if hasSpillableJoin(c) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// ChildNodes is implemented by plan operators defined outside this
// package (the SQL layer's memo and deferred nodes) so plan-tree walks
// — like the spillable-operator scan — can see their inputs.
type ChildNodes interface {
	// Children returns the operator's direct inputs.
	Children() []Node
}

// ChildRewriter is implemented by ChildNodes operators that can be
// rebuilt over rewritten inputs, which is how tracing instruments the
// plans inside them. Implementations must be pointer types: rewrites
// are remembered per node identity, so a node shared by two parents
// stays one node.
type ChildRewriter interface {
	ChildNodes
	// RewriteChildren returns a copy of the operator in which every
	// input — including any it only builds while executing — has been
	// passed through rewrite.
	RewriteChildren(rewrite func(Node) Node) Node
}
