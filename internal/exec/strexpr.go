package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// PrefixExpr is a string-producing expression: the first N bytes of a
// dictionary-encoded string column (SQL substring(col, 1, N)). The
// result is a fresh dictionary built by remapping the source dictionary
// once — one prefix computation per distinct value, not per row — so the
// cost is O(dict + rows) integer work.
//
// The output dictionary assigns codes in source-code order, which may
// differ from another producer's layout for the same values; consumers
// must compare string columns by value (colstore.TablesIdentical does).
type PrefixExpr struct {
	Col string
	N   int
}

// Eval implements Expr.
func (e PrefixExpr) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	c, err := t.ColByName(e.Col)
	if err != nil {
		return nil, err
	}
	sc, ok := c.(*colstore.Strings)
	if !ok {
		return nil, fmt.Errorf("exec: prefix(%s): not a string column", e.Col)
	}
	prefDict := colstore.NewDict()
	remap := make([]int32, sc.Dict.Len())
	for code := range remap {
		p := sc.Dict.Value(int32(code))
		if len(p) > e.N {
			p = p[:e.N]
		}
		remap[code] = prefDict.Add(p)
	}
	codes := make([]int32, len(sc.Codes))
	for i, code := range sc.Codes {
		codes[i] = remap[code]
	}
	ctr.IntOps += int64(len(codes)) + int64(len(remap))
	return &colstore.Strings{Codes: codes, Dict: prefDict}, nil
}

// String implements Expr.
func (e PrefixExpr) String() string { return fmt.Sprintf("prefix(%s,%d)", e.Col, e.N) }
