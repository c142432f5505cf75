package plan

import (
	"strings"

	"wimpi/internal/colstore"
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
// unknown nodes (e.g. a library user's own node types) are wrapped without
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
		// Instrument the subplans the pipeline executes: the generic
		// driver and every probe's build side. Phase spans (join-build,
		// fused-probe, gather) come from the pipeline itself.
		c := *v
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

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
