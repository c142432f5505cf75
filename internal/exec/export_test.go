package exec

// BuildJoinTableBits exposes the partitioned chained build at an explicit
// fan-out to the external conformance test.
var BuildJoinTableBits = buildJoinTableBits

// Bits reports the table's partition fan-out.
func (jt *JoinTable) Bits() uint { return jt.bits }

// Unique reports whether the build found every key once.
func (jt *JoinTable) Unique() bool { return jt.unique }
