package plan

import (
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// Run executes n and returns its result materialized: no column is a
// view (see gather). It is the one door every operator's execution goes
// through: on a traced run it opens n's operator span, labelled with the
// first line of its Explain, and phase spans the operator opens itself
// (join build/probe, gathers) nest inside it. A node defined in another
// package is traced in place by running its inputs here. Tracing costs
// an untraced run one nil check.
func (c *Context) Run(n Node) (*colstore.Table, error) { return c.runReading(n, nil, true) }

// runReading is Run for the operators that read their input through
// views (HashJoin, Filter, KeyFilter, Project): only the named columns
// of n's result — every one when all is set — are materialized, the
// columns the operator's kernels read; the others may stay views.
func (c *Context) runReading(n Node, cols []string, all bool) (*colstore.Table, error) {
	var sp *obs.Span
	if c.Trace != nil {
		if op := opName(n); op != "" {
			sp = c.Trace.Begin(op, firstLine(strings.TrimSpace(n.Explain(0))))
		}
	}
	out, err := n.Execute(c)
	if err != nil {
		c.Trace.EndErr(sp)
		return nil, err
	}
	if sp != nil {
		c.Trace.End(sp, int64(out.NumRows()), out.SizeBytes())
	}
	return c.materialize(out, cols, all)
}

// materialize returns t with its view columns among names — every one
// when all is set — copied into dense columns (exec.Materialize),
// morsel-parallel as a gather is. It charges nothing: the gather that
// made each view charged its copy.
func (c *Context) materialize(t *colstore.Table, names []string, all bool) (*colstore.Table, error) {
	if all {
		names = nil
	} else if len(names) == 0 {
		return t, nil
	}
	return exec.Materialize(t, names, c.workers(), c.morselRows(), c.Ctr)
}

// opName maps a node to its span operator kind; "" opens no span.
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
		return "" // it opens its own span, labelled with what it did
	case *Fused:
		return "fused-pipeline"
	default:
		return "node"
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
