package plan

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// KeySet links a hash join to the KeyFilter beneath its build side. The
// keys themselves live on the running query's Context, while the build
// side executes, so a plan tree holds no per-run state.
type KeySet struct {
	// From names the join's probe key columns.
	From []string
}

// keyFilterRatio is the filter's run rule: it tests membership only when
// the join has at most one probe row per keyFilterRatio rows the filter
// reads. A set that large keeps too much to pay for the test (Q18 joins
// 150 000 orders to a 602 110-row lineitem scan: 4.01×).
const keyFilterRatio = 8

// executeBuild runs a join's build side with the join's probe keys
// published under ks, materializing the columns named as runReading does.
func (c *Context) executeBuild(build Node, ks *KeySet, probeKeys []int64, cols []string, all bool) (*colstore.Table, error) {
	if c.sideways == nil {
		c.sideways = map[*KeySet][]int64{}
	}
	c.sideways[ks] = probeKeys
	defer delete(c.sideways, ks)
	return c.runReading(build, cols, all)
}

// KeyFilter is sideways information passing: it keeps the rows of its
// input whose key matches a probe key of the hash join sharing its Set,
// which runs its probe side first. The SQL optimizer puts it only where
// dropping rows with no partner cannot change a byte of the join's output;
// a filter that does not run returns exactly its input. Directly over a
// Scan it evaluates the scan predicate and the membership test on one
// selection vector and gathers once.
//
// It runs when the join's probe rows times keyFilterRatio are at most the
// rows it reads (the scan's base table, or its input) and the sums above
// it stay exact (see Exact): a decision made per execution from exact
// cardinalities, never from the worker count.
type KeyFilter struct {
	// Input is the child operator.
	Input Node
	// Keys names the key columns, pairwise matched to the join's probe
	// keys and packed the way the join packs them.
	Keys []string
	// Exact names the float columns a group-by above sums. The filter
	// keeps its rows only when their values there are integers whose
	// magnitudes total below 2^53: every partial sum is then exact, so a
	// group's sum has the same bits whichever morsels its rows fall into
	// once other groups' rows are gone.
	Exact []string
	// Set is the handle shared with the join.
	Set *KeySet
}

// Execute implements Node. The span says what the filter did:
// "keyfilter [k] <rows read> → <rows kept>, <key set layout>", or why it
// was skipped.
func (f *KeyFilter) Execute(ctx *Context) (*colstore.Table, error) {
	var sp *obs.Span
	if ctx.Trace != nil {
		sp = ctx.Trace.Begin("keyfilter", "keyfilter ["+strings.Join(f.Keys, ", ")+"]")
	}
	out, why, err := f.run(ctx)
	if err != nil {
		ctx.Trace.EndErr(sp)
		return nil, err
	}
	if sp != nil {
		sp.Label += " " + why
	}
	ctx.Trace.End(sp, int64(out.NumRows()), out.SizeBytes())
	return out, nil
}

func (f *KeyFilter) run(ctx *Context) (*colstore.Table, string, error) {
	scan, direct := f.Input.(*Scan)
	var t *colstore.Table
	var sel []int32   // the rows of t read; nil reads all of them
	var ssp *obs.Span // the scan's own span, when the filter reads it directly
	var err error
	if direct {
		if ctx.Trace != nil {
			ssp = ctx.Trace.Begin("scan", firstLine(scan.Explain(0)))
		}
		if t, err = scan.open(ctx); err == nil && scan.Pred != nil {
			sel, err = parallelSel(ctx, t, scan.Pred)
		}
		if err != nil {
			ctx.Trace.EndErr(ssp)
			return nil, "", err
		}
	} else if t, err = ctx.runReading(f.Input, nil, false); err != nil {
		return nil, "", err
	}
	read := t.NumRows()
	if sel != nil {
		read = len(sel)
	}
	ctx.Trace.End(ssp, int64(read), 0)

	pk, published := ctx.sideways[f.Set]
	why, filtered := "skipped (no probe keys)", false // why labels the span: formatted only when traced
	if published && keyFilterRatio*len(pk) > t.NumRows() {
		if ctx.Trace != nil {
			why = fmt.Sprintf("skipped (probe %d × %d > %d rows)", len(pk), keyFilterRatio, t.NumRows())
		}
	} else if published {
		if t, err = ctx.materialize(t, slices.Concat(f.Keys, f.Exact), false); err != nil {
			return nil, "", err
		}
		kept, layout, err := member(ctx, t, f.Keys, sel, pk)
		if err != nil {
			return nil, "", err
		}
		col, ok := exactSums(t, f.Exact, kept, ctx.Ctr)
		if ok {
			sel, filtered = kept, true
		}
		if ctx.Trace != nil && ok {
			why = fmt.Sprintf("%d → %d, %s", read, len(kept), layout)
		} else if ctx.Trace != nil {
			why = fmt.Sprintf("skipped (sum over %s not exact)", col)
		}
	}
	if sel == nil && !filtered {
		if direct {
			observe(ctx, t)
		}
		return t, why, nil
	}
	out, err := gather(ctx, t, sel, false)
	if err != nil {
		return nil, "", err
	}
	observe(ctx, t, out)
	return out, why, nil
}

// member returns, in row order, the rows of t — those sel names, or all —
// whose key is one of the probe keys pk: the semi join of those keys with
// a join build side over pk, laid out by buildJoin — and that layout.
func member(ctx *Context, t *colstore.Table, keys []string, sel []int32, pk []int64) ([]int32, string, error) {
	k, err := joinKeysParallel(ctx, t, keys, sel)
	if err != nil {
		return nil, "", err
	}
	set, layout, err := ctx.buildJoin(pk, len(k))
	if err != nil {
		return nil, "", err
	}
	hits, err := set.SemiJoin(k, ctx.workers(), ctx.morselRows(), ctx.Ctr)
	if err != nil || sel == nil {
		return hits, layout, err
	}
	for i, h := range hits {
		hits[i] = sel[h]
	}
	ctx.Ctr.RandomAccesses += int64(len(hits))
	return hits, layout, nil
}

// exactSums reports whether each named column holds, in t's rows sel,
// float integers whose magnitudes total below 2^53 — if not, the first
// column that does not.
func exactSums(t *colstore.Table, cols []string, sel []int32, ctr *exec.Counters) (string, bool) {
	for _, name := range cols {
		c, _ := t.ColByName(name)
		f, ok := c.(*colstore.Float64s)
		total := 0.0
		for i := 0; ok && i < len(sel); i++ {
			v := f.V[sel[i]]
			ok = v == math.Trunc(v)
			total += math.Abs(v)
		}
		ctr.RandomAccesses += int64(len(sel))
		ctr.FloatOps += 2 * int64(len(sel))
		if !ok || !(total < 1<<53) {
			return name, false
		}
	}
	return "", true
}

// Explain implements Node.
func (f *KeyFilter) Explain(depth int) string {
	s := fmt.Sprintf("%skeyfilter [%s] in probe [%s]", pad(depth), strings.Join(f.Keys, ", "), strings.Join(f.Set.From, ", "))
	if len(f.Exact) > 0 {
		s += fmt.Sprintf(" if exact [%s]", strings.Join(f.Exact, ", "))
	}
	return s + "\n" + f.Input.Explain(depth+1)
}
