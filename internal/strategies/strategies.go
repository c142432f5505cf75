// Package strategies implements the three query-execution paradigms
// compared in the paper's Section II-D.3 (Figure 4), following the
// taxonomy of the "Getting Swole" paper it cites:
//
//   - DataCentric: tuple-at-a-time fused pipelines. Every row runs the
//     whole stage chain with short-circuiting — minimal data movement,
//     but a data-dependent branch per stage per row.
//   - Hybrid: vectorized blocks with selection vectors between stages
//     (relaxed operator fusion). Blocks whose selection empties are
//     skipped.
//   - AccessAware: column-at-a-time with predicate pullup. Every stage
//     runs over every row, trading extra sequential memory traffic for
//     branch-free, prefetch-friendly access patterns.
//
// All three interpret the same Pipeline description, so they produce
// identical results while recording genuinely different work profiles
// (branch-heavy vs. bandwidth-heavy). Feeding those profiles to the
// hardware model reproduces Figure 4's findings: access-aware wins
// everywhere, data-centric loses everywhere, and the gaps are less
// pronounced on the bandwidth-starved Pi 3B+.
//
// Experiments run single-threaded, as in the paper.
package strategies

import (
	"fmt"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/exec/fused"
)

// Strategy identifies one execution paradigm.
type Strategy string

// The three paradigms of Figure 4.
const (
	// DataCentric is tuple-at-a-time fused execution.
	DataCentric Strategy = "data-centric"
	// Hybrid is block-vectorized execution.
	Hybrid Strategy = "hybrid"
	// AccessAware is column-at-a-time execution with predicate pullup.
	AccessAware Strategy = "access-aware"
)

// Strategies lists the paradigms in the paper's order.
var Strategies = []Strategy{DataCentric, Hybrid, AccessAware}

// Cost constants charged by the interpreters. The branch penalty is the
// calibrated constant that separates the paradigms; the rest follow from
// the operations actually performed.
const (
	// branchPenaltyOps is the per-row, per-stage control-flow cost of
	// fused tuple-at-a-time execution: a data-dependent branch per stage
	// with pipeline-flush misprediction costs (~15-20 cycles).
	branchPenaltyOps = 16
	// vecPenaltyOps is the smaller per-row cost hybrid execution retains
	// from indirecting through selection vectors.
	vecPenaltyOps = 4
	// aaVectorFactor discounts access-aware's arithmetic: its full-column
	// loops are branch-free and therefore superscalar/SIMD-friendly.
	aaVectorFactor = 0.6
	// blockOverheadOps is the per-stage, per-block dispatch cost of
	// vectorized execution.
	blockOverheadOps = 24
	// blockSize is the hybrid strategy's vector length.
	blockSize = 1024
	// lookupBytes approximates the memory touched by one hash probe.
	lookupBytes = 16
	// cacheResidentBytes is the lookup-table footprint below which
	// probes count as cache-resident: the Pi 3B+'s 512 KiB LLC, matching
	// hardware.Pi().LLCBytes.
	cacheResidentBytes = 512 << 10
)

// Stage is one step of a probe pipeline: it may filter rows and may
// write payload slots. The same stage code runs under all three
// interpreters; only orchestration differs.
type Stage struct {
	// Name labels the stage in explanations.
	Name string
	// Row evaluates the stage for one probe row, reading base columns
	// (captured in the closure) and reading/writing slots. It returns
	// whether the row survives.
	Row func(row int, slots []float64) bool
	// BytesPerRow is the base-column bytes the stage reads per row.
	BytesPerRow int64
	// OpsPerRow is the arithmetic/compare work per row.
	OpsPerRow int64
	// IsLookup marks hash-probe stages, which charge a random access.
	IsLookup bool
	// TableBytes is the footprint of the structure a lookup stage probes
	// (exec.JoinTableBytes of the build side). Probes into tables small
	// enough to stay resident in even the smallest profile's LLC charge
	// cache-resident accesses instead of DRAM-latency ones — the access
	// distinction the hardware model prices. Zero means unknown and is
	// charged conservatively as DRAM.
	TableBytes int64
	// NeedsSlots marks stages that read slots written by earlier lookup
	// stages; such stages cannot be pulled up by the access-aware
	// interpreter.
	NeedsSlots bool
}

// Pipeline describes one query's probe-side execution: the probe table,
// the stage chain, and a grouped aggregation over the survivors.
type Pipeline struct {
	// Rows is the probe-table row count.
	Rows int
	// NSlots is the number of payload slots each row carries.
	NSlots int
	// Stages is the ordered stage chain.
	Stages []Stage
	// Keys are slot indexes forming the group key (empty for scalar
	// aggregation).
	Keys []int
	// Sums are slot indexes accumulated per group.
	Sums []int
}

// GroupKey is a pipeline aggregation key (up to four slots).
type GroupKey [4]float64

// AggState accumulates one group.
type AggState struct {
	// Sums holds one accumulator per Pipeline.Sums entry.
	Sums []float64
	// Count is the surviving-row count.
	Count int64
}

// Result is a pipeline execution outcome.
type Result struct {
	// Groups maps group keys to aggregate state.
	Groups map[GroupKey]*AggState
	// Counters is the recorded work profile.
	Counters exec.Counters
}

// Run executes the pipeline under the given strategy.
func Run(s Strategy, p *Pipeline) (*Result, error) {
	switch s {
	case DataCentric:
		return runDataCentric(p), nil
	case Hybrid:
		return runHybrid(p), nil
	case AccessAware:
		return runAccessAware(p), nil
	default:
		return nil, fmt.Errorf("strategies: unknown strategy %q", s)
	}
}

func newResult() *Result {
	return &Result{Groups: make(map[GroupKey]*AggState)}
}

// chargeLookup records n hash probes against a table of the given
// footprint: cache-resident accesses when the table fits the smallest
// LLC, DRAM random accesses otherwise.
func chargeLookup(ctr *exec.Counters, n, tableBytes int64) {
	ctr.HashProbeTuples += n
	if tableBytes > 0 && tableBytes <= cacheResidentBytes {
		ctr.CacheRandomAccesses += n
		ctr.ObservePartitionBytes(tableBytes)
	} else {
		ctr.RandomAccesses += n
	}
}

func (r *Result) update(p *Pipeline, slots []float64) {
	var k GroupKey
	for i, s := range p.Keys {
		k[i] = slots[s]
	}
	st := r.Groups[k]
	if st == nil {
		st = &AggState{Sums: make([]float64, len(p.Sums))}
		r.Groups[k] = st
	}
	for i, s := range p.Sums {
		st.Sums[i] += slots[s]
	}
	st.Count++
	r.Counters.AggUpdates++
	r.Counters.FloatOps += int64(len(p.Sums))
}

// rowStages re-expresses the pipeline's stage chain in the fused row
// compiler's vocabulary.
func rowStages(p *Pipeline) []fused.RowStage {
	out := make([]fused.RowStage, len(p.Stages))
	for i, st := range p.Stages {
		out[i] = fused.RowStage{
			Name:        st.Name,
			Row:         st.Row,
			BytesPerRow: st.BytesPerRow,
			OpsPerRow:   st.OpsPerRow,
			IsLookup:    st.IsLookup,
			TableBytes:  st.TableBytes,
		}
	}
	return out
}

// runDataCentric executes the pipeline tuple at a time through the fused
// row compiler: the stage chain is composed into a single short-
// circuiting kernel, then every row runs it and surviving rows update
// their aggregate directly — no intermediate materialization, maximal
// branching. runDataCentricReference keeps the original interpreter as a
// golden cross-check; the two are bit- and counter-identical.
func runDataCentric(p *Pipeline) *Result {
	res := newResult()
	slots := make([]float64, p.NSlots)
	ctr := &res.Counters
	kernel := fused.CompileRow(rowStages(p), fused.RowConfig{
		BranchPenaltyOps:   branchPenaltyOps,
		CacheResidentBytes: cacheResidentBytes,
	})
	for row := 0; row < p.Rows; row++ {
		if kernel(row, slots, ctr) {
			res.update(p, slots)
		}
	}
	ctr.TuplesScanned += int64(p.Rows)
	return res
}

// runDataCentricReference is the original hand-rolled tuple-at-a-time
// interpreter, retained as the parity baseline for the compiled path.
func runDataCentricReference(p *Pipeline) *Result {
	res := newResult()
	slots := make([]float64, p.NSlots)
	ctr := &res.Counters
	for row := 0; row < p.Rows; row++ {
		survived := true
		for si := range p.Stages {
			st := &p.Stages[si]
			ctr.SeqBytes += st.BytesPerRow
			ctr.IntOps += st.OpsPerRow + branchPenaltyOps
			if st.IsLookup {
				chargeLookup(ctr, 1, st.TableBytes)
			}
			if !st.Row(row, slots) {
				survived = false
				break
			}
		}
		if survived {
			res.update(p, slots)
		}
	}
	ctr.TuplesScanned += int64(p.Rows)
	return res
}

// runHybrid interprets the pipeline block at a time: each stage runs
// over the block's current selection vector, and empty blocks skip the
// remaining stages.
func runHybrid(p *Pipeline) *Result {
	res := newResult()
	ctr := &res.Counters
	slotBuf := make([]float64, blockSize*p.NSlots)
	sel := make([]int32, 0, blockSize)
	for lo := 0; lo < p.Rows; lo += blockSize {
		hi := lo + blockSize
		if hi > p.Rows {
			hi = p.Rows
		}
		sel = sel[:0]
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		for si := range p.Stages {
			st := &p.Stages[si]
			ctr.IntOps += blockOverheadOps
			if len(sel) == 0 {
				break
			}
			kept := sel[:0]
			for _, r := range sel {
				slots := slotBuf[int(r-int32(lo))*p.NSlots : (int(r-int32(lo))+1)*p.NSlots]
				ctr.SeqBytes += st.BytesPerRow
				ctr.IntOps += st.OpsPerRow + vecPenaltyOps
				if st.IsLookup {
					chargeLookup(ctr, 1, st.TableBytes)
				}
				if st.Row(int(r), slots) {
					kept = append(kept, r)
				}
			}
			sel = kept
		}
		for _, r := range sel {
			slots := slotBuf[int(r-int32(lo))*p.NSlots : (int(r-int32(lo))+1)*p.NSlots]
			res.update(p, slots)
		}
	}
	ctr.TuplesScanned += int64(p.Rows)
	return res
}

// runAccessAware interprets the pipeline column at a time with predicate
// pullup: every stage that depends only on base columns runs over every
// row into a full-length mask (extra predicate evaluations and full-
// column materialization, all sequential and branch-free, charged at the
// vectorized discount); lookups and slot-dependent stages then run over
// the surviving selection in tight gather loops.
func runAccessAware(p *Pipeline) *Result {
	res := newResult()
	ctr := &res.Counters
	mask := make([]bool, p.Rows)
	for i := range mask {
		mask[i] = true
	}
	slots := make([]float64, p.Rows*p.NSlots)
	slot := func(r int) []float64 { return slots[r*p.NSlots : (r+1)*p.NSlots] }

	// Phase 1: pull up base-column stages over the full table.
	for si := range p.Stages {
		st := &p.Stages[si]
		if st.IsLookup || st.NeedsSlots {
			continue
		}
		for r := 0; r < p.Rows; r++ {
			ok := st.Row(r, slot(r))
			mask[r] = mask[r] && ok
		}
		ctr.SeqBytes += st.BytesPerRow * int64(p.Rows)
		ctr.IntOps += int64(float64(st.OpsPerRow+1) * float64(p.Rows) * aaVectorFactor)
		// The full-length mask intermediate is written and re-read.
		ctr.SeqBytes += int64(p.Rows)
		ctr.BytesMaterialized += int64(p.Rows)
	}

	// Phase 2: materialize the selection vector.
	sel := make([]int32, 0, p.Rows/4)
	for r := 0; r < p.Rows; r++ {
		if mask[r] {
			sel = append(sel, int32(r))
		}
	}
	ctr.IntOps += int64(p.Rows)
	ctr.SeqBytes += int64(len(sel)) * 4
	ctr.BytesMaterialized += int64(len(sel)) * 4

	// Phase 3: lookups and dependent stages over the selection, one
	// column-at-a-time pass per stage.
	for si := range p.Stages {
		st := &p.Stages[si]
		if !st.IsLookup && !st.NeedsSlots {
			continue
		}
		kept := sel[:0]
		for _, r := range sel {
			if st.Row(int(r), slot(int(r))) {
				kept = append(kept, r)
			}
		}
		n := int64(len(sel))
		sel = kept
		ctr.SeqBytes += st.BytesPerRow * n
		ctr.IntOps += int64(float64(st.OpsPerRow+1) * float64(n) * aaVectorFactor)
		if st.IsLookup {
			chargeLookup(ctr, n, st.TableBytes)
		}
	}

	for _, r := range sel {
		res.update(p, slot(int(r)))
	}
	ctr.TuplesScanned += int64(p.Rows)
	return res
}

// Dict returns the dictionary of a string column, for building
// code-based predicates inside stage closures.
func Dict(t *colstore.Table, col string) *colstore.Dict {
	return t.MustCol(col).(*colstore.Strings).Dict
}
