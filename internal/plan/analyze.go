package plan

import (
	"fmt"
	"strings"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// spanNode wraps a node so its execution opens an operator span on the
// context's tracer. Phase-level spans (join build/probe, gathers) are
// opened by the operators themselves and nest inside this one.
type spanNode struct {
	inner Node
	op    string
}

// Execute implements Node.
func (a *spanNode) Execute(ctx *Context) (*colstore.Table, error) {
	sp := ctx.Trace.Begin(a.op, firstLine(strings.TrimSpace(a.inner.Explain(0))))
	out, err := a.inner.Execute(ctx)
	if err != nil {
		ctx.Trace.EndErr(sp)
		return nil, err
	}
	ctx.Trace.End(sp, int64(out.NumRows()), out.SizeBytes())
	return out, nil
}

// Explain implements Node.
func (a *spanNode) Explain(depth int) string { return a.inner.Explain(depth) }

// opName maps a node to its span operator kind.
func opName(n Node) string {
	switch n.(type) {
	case *Scan:
		return "scan"
	case *Filter:
		return "select"
	case *Project:
		return "project"
	case *Rename:
		return "rename"
	case *Limit:
		return "limit"
	case *OrderBy:
		return "sort"
	case *GroupBy:
		return "group-by"
	case *HashJoin:
		return "hash-join"
	case *KeyFilter:
		return "keyfilter"
	case *Fused:
		return "fused-pipeline"
	case *spanNode:
		return "node" // wrappers are never re-instrumented
	default:
		return "node"
	}
}

// instrument returns a deep copy of the plan with every node wrapped in
// a spanNode. It understands all node types defined in this package and
// descends through foreign nodes that implement ChildRewriter; other
// unknown nodes (e.g. query-defined function nodes) are wrapped without
// descending into their internals.
func instrument(n Node) Node { return instrumentSeen(n, map[Node]Node{}) }

// instrumentSeen is instrument with the identity map that keeps a shared
// foreign node shared: a CTE referenced twice is rebuilt once, so it
// still executes once.
func instrumentSeen(n Node, seen map[Node]Node) Node {
	wrap := func(inner Node) Node { return &spanNode{inner: inner, op: opName(n)} }
	instrument := func(c Node) Node { return instrumentSeen(c, seen) }
	switch v := n.(type) {
	case *Scan:
		c := *v
		return wrap(&c)
	case *Filter:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *Project:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *Rename:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *Limit:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *OrderBy:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *GroupBy:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *HashJoin:
		c := *v
		c.Build = instrument(v.Build)
		c.Probe = instrument(v.Probe)
		return wrap(&c)
	case *KeyFilter:
		// The filter opens its own span, labelled with what it did, and
		// traces a scan it reads directly itself.
		c := *v
		if _, direct := v.Input.(*Scan); !direct {
			c.Input = instrument(v.Input)
		}
		return &c
	case *Fused:
		c := *v
		if c.useFused {
			// Instrument the subplans the fused path actually executes:
			// the generic driver and every probe's build side. Phase
			// spans (join-build, fused-probe, gather) come from the
			// pipeline itself.
			if c.input != nil {
				c.input = instrument(v.input)
			}
			c.stages = make([]fusedStage, len(v.stages))
			copy(c.stages, v.stages)
			for i, st := range c.stages {
				if ps, ok := st.(probeStage); ok {
					ps.build = instrument(ps.build)
					c.stages[i] = ps
				}
			}
		} else {
			c.fallback = instrument(v.fallback)
		}
		return wrap(&c)
	case *spanNode:
		return v // already instrumented
	case ChildRewriter:
		if done, ok := seen[n]; ok {
			return done
		}
		done := wrap(v.RewriteChildren(instrument))
		seen[n] = done
		return done
	default:
		return wrap(n)
	}
}

// Traced is the outcome of a traced execution.
type Traced struct {
	// Table is the query result.
	Table *colstore.Table
	// Counters is the total work.
	Counters exec.Counters
	// Root is the operator span tree.
	Root *obs.Span
}

// RunTraced executes a plan with operator span tracing. The result table
// and counters are bit-identical to Run's — tracing only snapshots the
// counters the kernels charge anyway, plus wall clocks that never feed
// back into execution.
func RunTraced(cat Catalog, workers int, n Node) (*Traced, error) {
	return RunTracedContext(&Context{Cat: cat, Workers: workers}, n)
}

// RunTracedContext is RunTraced under a caller-configured context. A nil
// Ctr gets fresh counters; any Trace already set is replaced by the
// tracer whose span tree the result reports, though a pre-set tracer's
// Hook is inherited — that is how deterministic tests act at an exact
// pipeline stage (e.g. cancel the query the moment its sort begins).
func RunTracedContext(ctx *Context, n Node) (*Traced, error) {
	if ctx.Ctr == nil {
		ctx.Ctr = &exec.Counters{}
	}
	tr := obs.NewTracer(ctx.Ctr)
	if ctx.Trace != nil {
		tr.Hook = ctx.Trace.Hook
	}
	ctx.Trace = tr
	sched, release := ctx.attachSched()
	compiled := instrument(Compile(ctx, n))
	if ctx.SpillDir != "" && ctx.MemLimitBytes > 0 {
		ctx.spillOK = hasSpillableJoin(compiled)
	}
	out, err := compiled.Execute(ctx)
	ctx.spillOK = false
	if a := ctx.spillArea; a != nil {
		ctx.spillArea = nil
		if cerr := a.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = sched.Err()
	}
	release()
	if err != nil {
		return nil, err
	}
	return &Traced{Table: out, Counters: *ctx.Ctr, Root: tr.Root()}, nil
}

// NodeStats records one operator's contribution during an analyzed
// execution.
type NodeStats struct {
	// Label is the operator's one-line description.
	Label string
	// Depth is the operator's depth in the span tree.
	Depth int
	// Rows is the operator's output cardinality.
	Rows int
	// OutputBytes is the operator's output footprint.
	OutputBytes int64
	// HostDuration is wall-clock time spent in this operator,
	// excluding its children.
	HostDuration time.Duration
	// Counters is the work charged by this operator, excluding its
	// children.
	Counters exec.Counters
}

// Analysis is the outcome of an analyzed execution.
type Analysis struct {
	// Table is the query result.
	Table *colstore.Table
	// Counters is the total work.
	Counters exec.Counters
	// Stats holds per-operator measurements in pre-order.
	Stats []NodeStats
	// Root is the underlying span tree (also flattened into Stats).
	Root *obs.Span
}

// Analyze executes a plan with per-operator instrumentation — the
// engine's EXPLAIN ANALYZE. It is RunTraced plus a flattening of the
// span tree into pre-order per-operator rows with exclusive (children
// subtracted) measurements.
func Analyze(cat Catalog, workers int, n Node) (*Analysis, error) {
	return AnalyzeContext(&Context{Cat: cat, Workers: workers}, n)
}

// AnalyzeContext is Analyze under a caller-configured context.
func AnalyzeContext(ctx *Context, n Node) (*Analysis, error) {
	res, err := RunTracedContext(ctx, n)
	if err != nil {
		return nil, err
	}
	var stats []NodeStats
	res.Root.Walk(func(sp *obs.Span, depth int) {
		stats = append(stats, NodeStats{
			Label:        sp.Label,
			Depth:        depth,
			Rows:         int(sp.Rows),
			OutputBytes:  sp.Bytes,
			HostDuration: sp.SelfWall(),
			Counters:     sp.SelfCounters(),
		})
	})
	return &Analysis{Table: res.Table, Counters: res.Counters, Stats: stats, Root: res.Root}, nil
}

// Render formats the analysis as an annotated plan tree.
func (a *Analysis) Render() string {
	var b strings.Builder
	b.WriteString("operator                                          rows     out-bytes       time     seq-bytes      rnd-acc\n")
	for _, st := range a.Stats {
		label := strings.Repeat("  ", st.Depth) + firstLine(st.Label)
		if len(label) > 48 {
			label = label[:45] + "..."
		}
		fmt.Fprintf(&b, "%-48s %8d %13d %10s %13d %12d\n",
			label, st.Rows, st.OutputBytes,
			st.HostDuration.Round(time.Microsecond),
			st.Counters.SeqBytes, st.Counters.RandomAccesses)
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
