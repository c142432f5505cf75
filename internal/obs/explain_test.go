package obs

import (
	"strings"
	"testing"

	"wimpi/internal/exec"
	"wimpi/internal/hardware"
)

// goldenTree builds a small fixed span tree: a group-by over a filtered
// scan, with the scan's gather broken out. All counters are hand-picked
// so the rendering is fully deterministic once wall time is masked.
func goldenTree() *Span {
	var ctr exec.Counters
	tr := NewTracer(&ctr)
	root := tr.Begin("group-by", "group by l_returnflag sum(l_quantity)")
	scan := tr.Begin("scan", "scan lineitem where l_shipdate < 1998-09-02")
	gat := tr.Begin("gather", "gather 59000 rows x 4 cols")
	ctr.TuplesMaterialized += 59000
	ctr.BytesMaterialized += 59000 * 32
	ctr.SeqBytes += 59000 * 32
	ctr.RandomAccesses += 59000 * 4
	tr.End(gat, 59000, 59000*32)
	ctr.TuplesScanned += 60000
	ctr.SeqBytes += 60000 * 40
	ctr.IntOps += 60000
	tr.End(scan, 59000, 59000*32)
	ctr.AggUpdates += 59000
	ctr.FloatOps += 59000
	ctr.RandomAccesses += 59000
	tr.End(root, 4, 4*48)
	return tr.Root()
}

func TestExplainAnalyzeGolden(t *testing.T) {
	pi := hardware.Pi()
	got := ExplainAnalyze(goldenTree(), ExplainOptions{
		Sim:      hardware.Sim{Model: hardware.DefaultModel(), Profile: &pi, DOP: 4},
		MaskWall: true,
	})
	const want = `operator                                           rows       wall  wall%  sim(Pi 3B+)   sim%     bound
group by l_returnflag sum(l_quantity)                 4   <wall>  <pct>      0.0008s  18.4%  mem-rand
  scan lineitem where l_shipdate < 1998-0...      59000   <wall>  <pct>      0.0009s  21.1%   mem-seq
    gather 59000 rows x 4 cols                    59000   <wall>  <pct>      0.0027s  60.6%  mem-rand
total: 3 operators, 0.0044s simulated on Pi 3B+ (+0.030s per-query overhead)
`
	if got != want {
		t.Errorf("rendering diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExplainAnalyzeWithoutProfileOmitsSimColumns(t *testing.T) {
	got := ExplainAnalyze(goldenTree(), ExplainOptions{MaskWall: true})
	if strings.Contains(got, "sim(") || strings.Contains(got, "bound") {
		t.Errorf("profile-less rendering should omit simulated columns:\n%s", got)
	}
	if !strings.Contains(got, "scan lineitem") {
		t.Errorf("rendering missing operator label:\n%s", got)
	}
}

func TestExplainAnalyzeNilRoot(t *testing.T) {
	if got := ExplainAnalyze(nil, ExplainOptions{}); !strings.Contains(got, "no spans") {
		t.Errorf("nil root rendering = %q", got)
	}
}
