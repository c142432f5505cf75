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
// prefix of partitions stays in memory, and every partition beyond it
// streams through the on-disk spill area and is processed one partition
// at a time. The degradation is planned and priced — charged sequential
// spill I/O instead of the cliff-edge swap model — and the output is
// byte-identical to the in-memory join, because it is the in-memory
// join's kernels that run: the spill joiner is the second driver of the
// per-partition probe kernels exec.RadixJoinTable drives over resident
// partitions, and owns only residency, segments and spans.
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

// spillJoiner is the budget-bounded exec.JoinProber: the compact join
// layout with its beyond-budget partitions spilled to disk.
type spillJoiner struct {
	ctx      *Context
	resident int // partitions < resident stay in memory
	rp       *exec.RadixPartitions
	bsegs    []*spill.Segment // per partition; nil below resident
}

// buildSpillJoiner partitions the build keys and spills the partitions
// beyond the resident budget.
func (c *Context) buildSpillJoiner(bk []int64, probeRows int) (*spillJoiner, error) {
	area, err := c.area()
	if err != nil {
		return nil, err
	}
	bits := spillBits(len(bk), probeRows, c.MemLimitBytes)
	sp := c.Trace.Begin("spill-partition",
		fmt.Sprintf("radix %d-way, budget %s", 1<<bits, spill.FormatByteSize(c.MemLimitBytes)))
	rp, err := exec.RadixPartitionKeys(bk, nil, bits, c.workers(), c.morselRows(), c.Ctr)
	if err != nil {
		c.Trace.EndErr(sp)
		return nil, err
	}
	np := rp.NumPartitions()
	sj := &spillJoiner{ctx: c, rp: rp, bsegs: make([]*spill.Segment, np)}

	// Resident prefix: partitions fit in memory until their cumulative
	// build state plus a uniform probe estimate crosses half the budget.
	// The boundary depends only on the build's partition sizes and the
	// budget, so every engine and every re-dispatch picks the same one.
	estProbePart := int64(probeRows) * spillProbeBytesPerRow >> bits
	budget := c.MemLimitBytes / 2
	var used int64
	for p := 0; p < np; p++ {
		b := int64(rp.Off[p+1]-rp.Off[p])*spillBuildBytesPerRow + estProbePart
		if used+b > budget {
			break
		}
		used += b
		sj.resident++
	}

	spilled, err := sj.spillBeyondResident(area, rp, sj.bsegs, c.Ctr)
	if err != nil {
		c.Trace.EndErr(sp)
		return nil, err
	}
	c.Ctr.ObserveResidentCap(c.MemLimitBytes)
	c.Trace.End(sp, int64(len(bk)), spilled)
	return sj, nil
}

// spillBeyondResident writes every partition of rp past the resident
// prefix to the spill area, recording its segment in segs.
func (sj *spillJoiner) spillBeyondResident(area *spill.Area, rp *exec.RadixPartitions, segs []*spill.Segment, ctr *exec.Counters) (spilled int64, err error) {
	sctx := sj.ctx.Sched.Context()
	for p := sj.resident; p < len(segs); p++ {
		lo, hi := rp.Off[p], rp.Off[p+1]
		segs[p], err = area.WriteSegment(sctx, rp.Keys[lo:hi], rp.Rows[lo:hi], ctr)
		if err != nil {
			return 0, err
		}
		spilled += segs[p].SizeBytes()
	}
	return spilled, nil
}

// partitionProbe partitions the probe keys with the build fan-out and
// spills the partitions beyond the resident prefix.
func (sj *spillJoiner) partitionProbe(pk []int64, w, mr int, ctr *exec.Counters) (*exec.RadixPartitions, []*spill.Segment, error) {
	pp, err := exec.RadixPartitionKeys(pk, nil, sj.rp.Bits, w, mr, ctr)
	if err != nil {
		return nil, nil, err
	}
	area, err := sj.ctx.area()
	if err != nil {
		return nil, nil, err
	}
	psegs := make([]*spill.Segment, pp.NumPartitions())
	if _, err := sj.spillBeyondResident(area, pp, psegs, ctr); err != nil {
		return nil, nil, err
	}
	return pp, psegs, nil
}

// partData returns partition p of one side: from memory when resident,
// read back from its segment when spilled.
func (sj *spillJoiner) partData(rp *exec.RadixPartitions, segs []*spill.Segment, p int, ctr *exec.Counters) ([]int64, []int32, error) {
	if segs[p] == nil {
		lo, hi := rp.Off[p], rp.Off[p+1]
		return rp.Keys[lo:hi], rp.Rows[lo:hi], nil
	}
	return segs[p].Read(sj.ctx.Sched.Context(), ctr)
}

// forEachPart runs one kernel pass over all partitions: the resident
// ones from memory, the spilled ones read back from the spill area, each
// with its partition table freshly built so only one partition's state
// is live at a time. A pass re-reads spilled segments, so a two-pass
// kernel pays the spill read twice — that is the honest price of not
// fitting.
func (sj *spillJoiner) forEachPart(pp *exec.RadixPartitions, psegs []*spill.Segment, ctr *exec.Counters,
	fn func(pt *exec.PartTable, pkeys []int64, prows []int32)) error {
	for p := 0; p < sj.rp.NumPartitions(); p++ {
		if err := sj.ctx.Sched.Err(); err != nil {
			return err
		}
		bkeys, brows, err := sj.partData(sj.rp, sj.bsegs, p, ctr)
		if err != nil {
			return err
		}
		pkeys, prows, err := sj.partData(pp, psegs, p, ctr)
		if err != nil {
			return err
		}
		fn(exec.BuildPartTable(bkeys, brows, ctr), pkeys, prows)
	}
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

// InnerJoin implements exec.JoinProber.
func (sj *spillJoiner) InnerJoin(pk []int64, w, mr int, ctr *exec.Counters) ([]int32, []int32, error) {
	sp := sj.beginProbe("inner")
	bi, pi, err := sj.innerJoin(pk, w, mr, ctr)
	sj.endProbe(sp, len(bi), 8, err)
	return bi, pi, err
}

// innerJoin is the count / offsets / fill scheme of exec.RadixJoinTable.
// The match groups of the count pass are not kept — the fill pass
// rebuilds each partition's table anyway — so it looks them up again.
func (sj *spillJoiner) innerJoin(pk []int64, w, mr int, ctr *exec.Counters) ([]int32, []int32, error) {
	pp, psegs, err := sj.partitionProbe(pk, w, mr, ctr)
	if err != nil {
		return nil, nil, err
	}
	counts := make([]int32, len(pk))
	var grp []int32 // per-partition scratch
	scratch := func(n int) []int32 {
		if cap(grp) < n {
			grp = make([]int32, n)
		}
		return grp[:n]
	}
	if err := sj.forEachPart(pp, psegs, ctr, func(pt *exec.PartTable, pkeys []int64, prows []int32) {
		pt.CountMatches(pkeys, prows, scratch(len(pkeys)), counts, ctr)
	}); err != nil {
		return nil, nil, err
	}
	offs, total, err := exec.MatchOffsets(counts, ctr)
	if err != nil {
		return nil, nil, err
	}
	buildIdx := make([]int32, total)
	probeIdx := make([]int32, total)
	if err := sj.forEachPart(pp, psegs, ctr, func(pt *exec.PartTable, pkeys []int64, prows []int32) {
		g := scratch(len(pkeys))
		pt.Groups(pkeys, g, ctr)
		pt.FillMatches(prows, g, offs, buildIdx, probeIdx, ctr)
	}); err != nil {
		return nil, nil, err
	}
	return buildIdx, probeIdx, nil
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
	err := sj.probePass(pk, w, mr, ctr, func(pt *exec.PartTable, pkeys []int64, prows []int32) {
		pt.FlagMatches(pkeys, prows, hit, ctr)
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
	err := sj.probePass(pk, w, mr, ctr, func(pt *exec.PartTable, pkeys []int64, prows []int32) {
		pt.CountPerProbe(pkeys, prows, out, ctr)
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

// probePass partitions the probe side and runs a one-pass kernel over
// every partition.
func (sj *spillJoiner) probePass(pk []int64, w, mr int, ctr *exec.Counters, fn func(pt *exec.PartTable, pkeys []int64, prows []int32)) error {
	pp, psegs, err := sj.partitionProbe(pk, w, mr, ctr)
	if err != nil {
		return err
	}
	return sj.forEachPart(pp, psegs, ctr, fn)
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
