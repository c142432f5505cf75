package colstore

import "fmt"

// Concat vertically concatenates tables with identical schemas into one
// new table. String columns from different sources may use different
// dictionaries; their codes are remapped into a fresh shared dictionary.
// The cluster coordinator uses this to assemble partial results arriving
// from worker nodes.
func Concat(tables ...*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("colstore: concat of no tables")
	}
	first := tables[0]
	for _, t := range tables[1:] {
		if len(t.Schema) != len(first.Schema) {
			return nil, fmt.Errorf("colstore: concat schema mismatch: %d vs %d columns",
				len(t.Schema), len(first.Schema))
		}
		for i, f := range t.Schema {
			if f.Name != first.Schema[i].Name || f.Type != first.Schema[i].Type {
				return nil, fmt.Errorf("colstore: concat schema mismatch at column %d: %v vs %v",
					i, f, first.Schema[i])
			}
		}
	}
	total := 0
	for _, t := range tables {
		total += t.NumRows()
	}
	cols := make([]Column, len(first.Schema))
	for ci, f := range first.Schema {
		switch f.Type {
		case Int64:
			v := make([]int64, 0, total)
			for _, t := range tables {
				v = append(v, t.Cols[ci].(*Int64s).V...)
			}
			cols[ci] = &Int64s{V: v}
		case Float64:
			v := make([]float64, 0, total)
			for _, t := range tables {
				v = append(v, t.Cols[ci].(*Float64s).V...)
			}
			cols[ci] = &Float64s{V: v}
		case Date:
			v := make([]int32, 0, total)
			for _, t := range tables {
				v = append(v, t.Cols[ci].(*Dates).V...)
			}
			cols[ci] = &Dates{V: v}
		case Bool:
			v := make([]bool, 0, total)
			for _, t := range tables {
				v = append(v, t.Cols[ci].(*Bools).V...)
			}
			cols[ci] = &Bools{V: v}
		case String:
			dict := NewDict()
			codes := make([]int32, 0, total)
			for _, t := range tables {
				sc := t.Cols[ci].(*Strings)
				remap := make([]int32, sc.Dict.Len())
				for code := range remap {
					remap[code] = dict.Add(sc.Dict.Value(int32(code)))
				}
				for _, c := range sc.Codes {
					codes = append(codes, remap[c])
				}
			}
			cols[ci] = &Strings{Codes: codes, Dict: dict}
		}
	}
	return NewTable(first.Name, first.Schema, cols)
}
