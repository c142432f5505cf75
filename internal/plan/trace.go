package plan

import (
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/obs"
)

// Run executes n. It is the one door every operator's execution goes
// through: on a traced run it opens n's operator span, labelled with the
// first line of its Explain, and phase spans the operator opens itself
// (join build/probe, gathers) nest inside it. A node defined in another
// package is traced in place by running its inputs here. An untraced run
// pays one nil check.
func (c *Context) Run(n Node) (*colstore.Table, error) {
	var sp *obs.Span
	if c.Trace != nil {
		if op := opName(n); op != "" {
			sp = c.Trace.Begin(op, firstLine(strings.TrimSpace(n.Explain(0))))
		}
	}
	out, err := n.Execute(c)
	if sp == nil {
		return out, err
	}
	if err != nil {
		c.Trace.EndErr(sp)
		return nil, err
	}
	c.Trace.End(sp, int64(out.NumRows()), out.SizeBytes())
	return out, nil
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
