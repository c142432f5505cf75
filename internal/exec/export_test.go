package exec

import "slices"

// BuildJoinTableBits exposes the partitioned chained build at an explicit
// fan-out to the external conformance test.
var BuildJoinTableBits = buildJoinTableBits

// Bits reports the table's partition fan-out.
func (jt *JoinTable) Bits() uint { return jt.bits }

// Unique reports whether the build found every key once.
func (jt *JoinTable) Unique() bool { return jt.unique }

// PartRows returns the build rows held in part p of a chained table,
// ascending.
func (jt *JoinTable) PartRows(p int) []int32 {
	var rows []int32
	for _, h := range jt.parts[p].slotHead {
		for r := h; r >= 0; r = jt.next[r] {
			rows = append(rows, r)
		}
	}
	slices.Sort(rows)
	return rows
}
