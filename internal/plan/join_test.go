package plan

import (
	"fmt"
	"slices"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/obs"
)

func intTable(name, col string, v []int64) *colstore.Table {
	return colstore.MustNewTable(name, colstore.Schema{{Name: col, Type: colstore.Int64}},
		[]colstore.Column{&colstore.Int64s{V: v}})
}

// TestPositionalRule pins buildJoin's positional bound: build keys
// spanning exactly PositionalMaxSpan slots take the positional layout and
// one slot more the chained one, whichever side of the bound's max sets
// it — at 1, 2 and 8 workers in both engines, with the same answer every
// time.
func TestPositionalRule(t *testing.T) {
	for _, tc := range []struct {
		name         string
		build, probe int
	}{
		{"chained table sets the bound", 1000, 100},
		{"probe keys set the bound", 10, 1000},
	} {
		bound := PositionalMaxSpan(tc.build, tc.probe)
		for _, span := range []int64{bound, bound + 1} {
			bk := make([]int64, tc.build) // 0, 1, … and the span's last key
			for i := range bk {
				bk[i] = int64(i)
			}
			bk[len(bk)-1] = span - 1
			pk := make([]int64, tc.probe) // hits, holes and keys past the range
			for i := range pk {
				pk[i] = int64(i) * 3 % (span + 2)
			}
			cat := memCatalog{"b": intTable("b", "b_key", bk), "p": intTable("p", "p_key", pk)}
			join := &HashJoin{
				Build: &Scan{Table: "b"}, BuildKeys: []string{"b_key"},
				Probe: &Scan{Table: "p"}, ProbeKeys: []string{"p_key"},
			}
			want := fmt.Sprintf("build [b_key] positional, %d slots", span)
			if span > bound {
				want = "build [b_key] chained"
			}
			var ref *colstore.Table
			for _, w := range []int{1, 2, 8} {
				for _, mode := range []ExecMode{ExecVector, ExecFused} {
					res, err := RunContext(&Context{Cat: cat, Workers: w, MinParallelRows: 1, Exec: mode, Trace: &obs.Tracer{}}, join)
					if err != nil {
						t.Fatal(err)
					}
					var builds, ops []string
					res.Root.Walk(func(sp *obs.Span, _ int) {
						ops = append(ops, sp.Op)
						if sp.Op == "join-build" {
							builds = append(builds, sp.Label)
						}
					})
					if len(builds) != 1 || builds[0] != want {
						t.Fatalf("%s, span %d (bound %d), w%d/%s: join-build spans %q, want %q", tc.name, span, bound, w, mode, builds, want)
					}
					if slices.Contains(ops, "fused-probe") != (mode == ExecFused) {
						t.Fatalf("%s, w%d/%s: spans %v", tc.name, w, mode, ops)
					}
					if ref == nil {
						ref = res.Table
					} else if same, where := colstore.TablesIdentical(ref, res.Table); !same {
						t.Fatalf("%s, span %d, w%d/%s: %s", tc.name, span, w, mode, where)
					}
				}
			}
		}
	}
}
