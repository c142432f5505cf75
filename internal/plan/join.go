package plan

import (
	"fmt"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
)

// JoinKind selects the semantics of a HashJoin.
type JoinKind uint8

// The join kinds.
const (
	// Inner emits one output row per matching (build, probe) pair,
	// carrying the columns of both sides.
	Inner JoinKind = iota
	// Semi emits probe rows with at least one match (probe columns only).
	Semi
	// Anti emits probe rows with no match (probe columns only).
	Anti
	// LeftCount emits every probe row plus an int64 column counting its
	// matches, implementing COUNT-augmented left outer joins (Q13).
	LeftCount
)

// String returns the kind's name.
func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "inner"
	case Semi:
		return "semi"
	case Anti:
		return "anti"
	default:
		return "left-count"
	}
}

// HashJoin joins Build and Probe on equality of one or two key columns.
// The smaller input should be the build side; the node does not reorder
// its children.
type HashJoin struct {
	// Build and Probe are the child operators.
	Build, Probe Node
	// BuildKeys and ProbeKeys name the equi-join columns (one or two,
	// pairwise matched).
	BuildKeys, ProbeKeys []string
	// Kind selects inner/semi/anti/left-count semantics.
	Kind JoinKind
	// CountAs names the match-count column for LeftCount joins; it
	// defaults to "match_count".
	CountAs string
	// Sideways, when non-nil, links the join to a KeyFilter beneath its
	// build side: the join runs its probe side first and hands its probe
	// keys to the filter before the build side runs.
	Sideways *KeySet
}

// Execute implements Node.
func (j *HashJoin) Execute(ctx *Context) (*colstore.Table, error) {
	if len(j.BuildKeys) == 0 || len(j.BuildKeys) != len(j.ProbeKeys) {
		return nil, fmt.Errorf("plan: hash join needs matching key lists, got %v and %v", j.BuildKeys, j.ProbeKeys)
	}
	var build, probe *colstore.Table
	var pk []int64
	var err error
	if j.Sideways != nil {
		if probe, err = j.Probe.Execute(ctx); err != nil {
			return nil, err
		}
		if pk, err = joinKeysParallel(ctx, probe, j.ProbeKeys, nil); err != nil {
			return nil, err
		}
		build, err = ctx.executeBuild(j.Build, j.Sideways, pk)
	} else if build, err = j.Build.Execute(ctx); err == nil {
		probe, err = j.Probe.Execute(ctx)
	}
	if err != nil {
		return nil, err
	}

	jp, err := ctx.buildPhase(build, j.BuildKeys, probe.NumRows())
	if err != nil {
		return nil, err
	}

	// Probe phase: key extraction (unless the probe side ran first), probe
	// kernel, and output gathers.
	psp := ctx.Trace.Begin("join-probe", fmt.Sprintf("probe [%s]", strings.Join(j.ProbeKeys, ",")))
	if j.Sideways == nil {
		pk, err = joinKeysParallel(ctx, probe, j.ProbeKeys, nil)
	}
	var out *colstore.Table
	if err == nil {
		out, err = j.probePhase(ctx, jp, build, probe, pk)
	}
	if err != nil {
		ctx.Trace.EndErr(psp)
		return nil, err
	}
	ctx.Trace.End(psp, int64(out.NumRows()), out.SizeBytes())
	return out, nil
}

// buildPhase is a join's build phase in both engines: key extraction plus
// the build side in whichever layout buildJoin picks, under one
// join-build span that names the layout.
func (c *Context) buildPhase(build *colstore.Table, keys []string, probeRows int) (exec.JoinProber, error) {
	label := fmt.Sprintf("build [%s]", strings.Join(keys, ","))
	bsp := c.Trace.Begin("join-build", label)
	bk, err := joinKeysParallel(c, build, keys, nil)
	var jp exec.JoinProber
	var layout string
	if err == nil {
		jp, layout, err = c.buildJoin(bk, probeRows)
	}
	if err != nil {
		c.Trace.EndErr(bsp)
		return nil, err
	}
	if bsp != nil {
		bsp.Label = label + " " + layout
	}
	c.Trace.End(bsp, int64(build.NumRows()), build.SizeBytes())
	return jp, nil
}

// buildJoin builds the build side of a hash join over its extracted keys
// — the one place the layout is chosen, for the vector and the fused
// engine and the key filter alike — and names the layout it chose. Every
// input of the choice is something the query observes (the keys,
// cardinalities, the memory budget, the LLC budget) and none is the
// worker count, so both engines, every degree of parallelism and a
// re-dispatched cluster worker pick the same physical join:
//
//   - join state beyond the memory budget: the compact layout with its
//     beyond-budget partitions streamed through the spill area, instead
//     of letting the OS page a hash table through swap;
//   - keys spanning at most PositionalMaxSpan values: the positional
//     layout, which hashes nothing;
//   - a chained table that would blow the LLC budget, where chooseRadix
//     prices partitioning cheaper: the compact layout, resident. The
//     partition pass gets its own span because it is the streaming price
//     paid to keep every probe cache-resident;
//   - otherwise the chained layout.
func (c *Context) buildJoin(bk []int64, probeRows int) (exec.JoinProber, string, error) {
	w, mr := c.workers(), c.morselRows()
	if c.useSpillJoin(len(bk), probeRows) {
		sj, err := c.buildSpillJoiner(bk, probeRows)
		return sj, "radix, spilled", err
	}
	if base, span, ok := exec.KeySpan(bk, c.Ctr); ok && int64(span) <= PositionalMaxSpan(len(bk), probeRows) {
		jt, err := exec.BuildPositionalJoinTable(bk, base, span, c.Ctr)
		return jt, fmt.Sprintf("positional, %d slots", span), err
	}
	target := c.llcBytes()
	radix, bloom, why := JoinStrategy(len(bk), probeRows, target)
	if !radix {
		jt, err := exec.BuildJoinTableParallel(bk, w, mr, c.Ctr)
		return jt, "chained", err
	}
	bits := exec.RadixBits(len(bk), exec.RadixBuildBytesPerRow, target/2)
	ksp := c.Trace.Begin("join-partition",
		fmt.Sprintf("radix %d-way, %d pass(es); %s", 1<<bits, exec.RadixPasses(bits), why))
	rp, err := exec.RadixPartitionKeys(bk, nil, bits, w, mr, c.Ctr)
	if err != nil {
		c.Trace.EndErr(ksp)
		return nil, "", err
	}
	c.Trace.End(ksp, int64(len(bk)), int64(len(bk))*12)
	rt, err := exec.BuildRadixTables(rp, exec.RadixJoinConfig{Bloom: bloom}, w, mr, c.Ctr)
	return rt, "radix", err
}

// PositionalMaxSpan is the widest key range buildJoin lays out
// positionally for the given cardinalities: at 4 bytes a slot, the array
// may grow neither past the chained table it replaces nor past the
// probe-key vector (8 bytes a row) the join already holds.
func PositionalMaxSpan(buildRows, probeRows int) int64 {
	return max(exec.JoinTableBytes(buildRows), 8*int64(probeRows)) / 4
}

// JoinStrategy is buildJoin's hashed layout decision, exported so
// EXPLAIN predicts what runs: radix for the compact layout (chooseRadix),
// bloom for its probe-side Bloom pre-filter, which pays when most probes
// miss (the probe side dwarfs the build side) and the filter fits the LLC
// budget (0 disables the partitioned paths).
func JoinStrategy(buildRows, probeRows int, llcBytes int64) (radix, bloom bool, why string) {
	radix, why = chooseRadix(buildRows, probeRows, llcBytes)
	bloom = radix && probeRows >= 4*buildRows && exec.BloomBytes(buildRows) <= llcBytes
	return radix, bloom, why
}

// radixMinBuildRows is the smallest build side worth partitioning; below
// it the chained table fits comfortably in cache anyway and the pass
// setup would dominate.
const radixMinBuildRows = 1 << 12

// chooseRadix decides between the chained and the compact layout by
// pricing both with the hardware cost model on the wimpy reference
// profile ("plan for the smallest node"). The differential profiles
// carry only what differs: the chained table's DRAM-latency probes
// against the compact path's partition streaming plus cache-resident
// probes. The decision depends only on input cardinalities and the LLC
// budget — never on the worker count — so the choice (and the
// byte-exact output) is identical on one core, eight cores, and a
// re-dispatched cluster worker.
//
// On a big-cached host the compact path often loses in wall-clock (the
// chained table fits some L3 slice and partitioning is pure overhead);
// it wins on the simulated Pi, whose 512 KiB LLC is the budget the
// partitions are sized to. The measured side of that is
// plan.join_build_ns_per_tuple and plan.join_probe_ns_per_tuple of the
// traced `power` (mostly chained) and `spill` (compact) runs of
// benchmark/, next to hardware.sim_*.
func chooseRadix(buildRows, probeRows int, llcBytes int64) (bool, string) {
	if llcBytes <= 0 {
		return false, "chained: partitioned paths disabled"
	}
	if buildRows < radixMinBuildRows {
		return false, fmt.Sprintf("chained: build %d rows below radix threshold %d", buildRows, radixMinBuildRows)
	}
	tableBytes := exec.JoinTableBytes(buildRows)
	if tableBytes <= llcBytes {
		return false, fmt.Sprintf("chained: table %dB fits LLC budget %dB", tableBytes, llcBytes)
	}

	// Chained: every probe is a DRAM-latency random access into the
	// oversized table.
	var chained exec.Counters
	chained.RandomAccesses = int64(probeRows)
	chained.MaxHashBytes = tableBytes

	// Radix: both sides stream through the partition passes (histogram
	// read + scatter read/write per pass, as the partitioner charges),
	// then build and probe run cache-resident.
	bits := exec.RadixBits(buildRows, exec.RadixBuildBytesPerRow, llcBytes/2)
	passes := int64(exec.RadixPasses(bits))
	var radix exec.Counters
	radix.PartitionBytes = 3 * 12 * passes * int64(buildRows+probeRows)
	radix.CacheRandomAccesses = int64(2*buildRows + probeRows)
	radix.MaxPartitionBytes = exec.RadixBuildBytesPerRow * int64(buildRows) >> bits

	model := hardware.DefaultModel()
	pi := hardware.Pi()
	tc := model.OperatorTime(&pi, chained, 1)
	tr := model.OperatorTime(&pi, radix, 1)
	if tr <= tc {
		return true, fmt.Sprintf("radix: saves %v on %s (est %v vs %v)", tc-tr, pi.Name, tr, tc)
	}
	return false, fmt.Sprintf("chained: radix overhead loses %v on %s (est %v vs %v)", tr-tc, pi.Name, tr, tc)
}

// probePhase probes with the probe side's keys pk and gathers the output.
func (j *HashJoin) probePhase(ctx *Context, jp exec.JoinProber, build, probe *colstore.Table, pk []int64) (*colstore.Table, error) {
	w, mr := ctx.workers(), ctx.morselRows()
	switch j.Kind {
	case Inner:
		bi, pi, err := jp.InnerJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		left, err := gather(ctx, probe, pi)
		if err != nil {
			return nil, err
		}
		right, err := gather(ctx, build, bi)
		if err != nil {
			return nil, err
		}
		out, err := concatTables(left, right)
		if err != nil {
			return nil, fmt.Errorf("plan: join %v/%v: %w", j.BuildKeys, j.ProbeKeys, err)
		}
		observe(ctx, build, probe, out)
		return out, nil
	case Semi:
		sel, err := jp.SemiJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		out, err := gather(ctx, probe, sel)
		if err != nil {
			return nil, err
		}
		observe(ctx, build, probe, out)
		return out, nil
	case Anti:
		sel, err := jp.AntiJoin(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		out, err := gather(ctx, probe, sel)
		if err != nil {
			return nil, err
		}
		observe(ctx, build, probe, out)
		return out, nil
	case LeftCount:
		counts, err := jp.CountPerProbe(pk, w, mr, ctx.Ctr)
		if err != nil {
			return nil, err
		}
		name := j.CountAs
		if name == "" {
			name = "match_count"
		}
		schema := make(colstore.Schema, 0, probe.NumCols()+1)
		cols := make([]colstore.Column, 0, probe.NumCols()+1)
		schema = append(schema, probe.Schema...)
		cols = append(cols, probe.Cols...)
		schema = append(schema, colstore.Field{Name: name, Type: colstore.Int64})
		cols = append(cols, &colstore.Int64s{V: counts})
		out, err := colstore.NewTable("", schema, cols)
		if err != nil {
			return nil, err
		}
		observe(ctx, build, probe, out)
		return out, nil
	default:
		return nil, fmt.Errorf("plan: unknown join kind %d", j.Kind)
	}
}

// Explain implements Node.
func (j *HashJoin) Explain(depth int) string {
	return fmt.Sprintf("%shash join (%s) build.%s = probe.%s\n%s%s",
		pad(depth), j.Kind,
		strings.Join(j.BuildKeys, ","), strings.Join(j.ProbeKeys, ","),
		j.Build.Explain(depth+1), j.Probe.Explain(depth+1))
}

// joinKeysInto extracts into dst the keys of rows [lo, hi) of t — or,
// given a selection, of rows sel[lo:hi] — packing two-column keys into a
// single word.
func joinKeysInto(dst []int64, t *colstore.Table, names []string, sel []int32, lo, hi int, ctr *exec.Counters) error {
	if len(names) != 1 && len(names) != 2 {
		return fmt.Errorf("plan: joins support one or two key columns, got %d", len(names))
	}
	rows := sel
	if sel != nil {
		rows = sel[lo:hi]
	}
	col := func(name string) (colstore.Column, error) {
		c, err := t.ColByName(name)
		if err == nil && sel == nil && hi-lo < c.Len() {
			c = c.Slice(lo, hi)
		}
		return c, err
	}
	a, err := col(names[0])
	if err != nil {
		return err
	}
	if err := exec.KeysInto(dst, a, rows, ctr); err != nil || len(names) == 1 {
		return err
	}
	b, err := col(names[1])
	if err != nil {
		return err
	}
	low := make([]int64, hi-lo)
	if err := exec.KeysInto(low, b, rows, ctr); err != nil {
		return err
	}
	return exec.CombineKeysInto(dst, dst, low, 31, ctr)
}

// joinKeysParallel extracts the join keys of t's rows — all of them, or
// those a non-nil sel names — with the per-row key extraction and packing
// split into morsels, each decoding straight into its slot of the output.
// Both kernels are elementwise, so the output is identical to the
// sequential path.
func joinKeysParallel(ctx *Context, t *colstore.Table, names []string, sel []int32) ([]int64, error) {
	n := t.NumRows()
	if sel != nil {
		n = len(sel)
	}
	out := make([]int64, n)
	var err error
	if w := ctx.workers(); w == 1 || n < ctx.parallelMinRows() {
		err = joinKeysInto(out, t, names, sel, 0, n, ctx.Ctr)
	} else {
		err = exec.RunMorsels(w, n, ctx.morselRows(), ctx.Ctr, func(m, lo, hi int, ctr *exec.Counters) error {
			return joinKeysInto(out[lo:hi], t, names, sel, lo, hi, ctr)
		})
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// concatTables concatenates the columns of two equal-length tables,
// rejecting duplicate column names (rename one side first).
func concatTables(a, b *colstore.Table) (*colstore.Table, error) {
	if a.NumRows() != b.NumRows() {
		return nil, fmt.Errorf("row count mismatch: %d vs %d", a.NumRows(), b.NumRows())
	}
	schema := make(colstore.Schema, 0, a.NumCols()+b.NumCols())
	cols := make([]colstore.Column, 0, a.NumCols()+b.NumCols())
	schema = append(schema, a.Schema...)
	cols = append(cols, a.Cols...)
	for i, f := range b.Schema {
		if a.Schema.Index(f.Name) >= 0 {
			return nil, fmt.Errorf("duplicate column %q after join; rename one side", f.Name)
		}
		schema = append(schema, f)
		cols = append(cols, b.Cols[i])
	}
	return colstore.NewTable("", schema, cols)
}
