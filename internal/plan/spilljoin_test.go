package plan

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/jointest"
	"wimpi/internal/obs"
	"wimpi/internal/spill"
)

// spillBudget forces cancelCatalog's join (≈1.6 MB of join state) onto
// the spill path while leaving room for a resident prefix.
const spillBudget = 256 << 10

// TestSpillJoinMatchesInMemory is the tentpole acceptance check at the
// plan layer: a budget-forced spill run is byte-identical to the
// unlimited in-memory run, for every engine and worker count — and the
// spilled run really moved bytes through the spill area.
func TestSpillJoinMatchesInMemory(t *testing.T) {
	cat := cancelCatalog()
	p := cancelPlan()
	want, _, err := RunContext(&Context{Cat: cat, Workers: 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{ExecVector, ExecFused, ExecAuto} {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s-w%d", mode, w), func(t *testing.T) {
				got, ctr, err := RunContext(&Context{
					Cat: cat, Workers: w, Exec: mode,
					MemLimitBytes: spillBudget, SpillDir: t.TempDir(),
				}, p)
				if err != nil {
					t.Fatal(err)
				}
				if ok, why := colstore.TablesIdentical(want, got); !ok {
					t.Fatalf("spilled result differs from in-memory: %s", why)
				}
				if ctr.SpillWriteBytes == 0 || ctr.SpillReadBytes == 0 {
					t.Fatalf("budget %d never hit the spill area: wrote %d, read %d",
						spillBudget, ctr.SpillWriteBytes, ctr.SpillReadBytes)
				}
				if ctr.ResidentCapBytes != spillBudget {
					t.Fatalf("ResidentCapBytes = %d, want %d", ctr.ResidentCapBytes, spillBudget)
				}
			})
		}
	}
}

// TestJoinProberConformance runs the spill joiner through the
// conformance table internal/exec runs the resident layouts through, at
// every residency: nothing resident, a resident prefix, everything
// resident. The spill decision and fan-out are fixed by hand so that
// each residency is reached on every input; TestSpillJoinMatchesInMemory
// covers the budget-driven choice end to end.
func TestJoinProberConformance(t *testing.T) {
	const bits = 4
	var impls []jointest.Impl
	for _, resident := range []int{0, 5, 1 << bits} {
		resident := resident
		impls = append(impls, jointest.Impl{
			Name: fmt.Sprintf("spill-resident%d", resident),
			Build: func(t *testing.T, build []int64, _, w, mr int, ctr *exec.Counters) exec.JoinProber {
				c := &Context{Ctr: ctr, Workers: w, MorselRows: mr, MemLimitBytes: 1 << 20, SpillDir: t.TempDir()}
				area, err := c.area()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := area.Close(); err != nil {
						t.Error(err)
					}
				})
				rp, err := exec.RadixPartitionKeys(build, nil, bits, w, mr, ctr)
				if err != nil {
					t.Fatal(err)
				}
				sj := &spillJoiner{ctx: c, resident: resident, rp: rp, bsegs: make([]*spill.Segment, 1<<bits)}
				if _, err := sj.spillBeyondResident(area, rp, sj.bsegs, ctr); err != nil {
					t.Fatal(err)
				}
				return sj
			},
			// Partitions are probed one at a time: nothing depends on the
			// worker count but who runs the partition passes.
			CountersFrom: 1,
			Check: func(t *testing.T, in jointest.Input, ctr exec.Counters) {
				spilled := resident < 1<<bits && len(in.Build)+len(in.Probe) > 0
				if (ctr.SpillWriteBytes > 0) != spilled || (ctr.SpillReadBytes > 0) != spilled {
					t.Fatalf("resident %d of %d partitions: wrote %d, read %d spill bytes",
						resident, 1<<bits, ctr.SpillWriteBytes, ctr.SpillReadBytes)
				}
			},
		})
	}
	jointest.Run(t, impls)
}

// TestSpillAreaRemovedAfterRun: the per-query spill area (and every
// segment in it) is gone once RunContext returns.
func TestSpillAreaRemovedAfterRun(t *testing.T) {
	cat := cancelCatalog()
	dir := t.TempDir()
	_, _, err := RunContext(&Context{
		Cat: cat, Workers: 2,
		MemLimitBytes: spillBudget, SpillDir: dir,
	}, cancelPlan())
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not cleaned up: %d entries left", len(ents))
	}
}

// TestSpillSpansInTrace: -explain sees the spill through its own spans.
func TestSpillSpansInTrace(t *testing.T) {
	cat := cancelCatalog()
	res, err := RunTracedContext(&Context{
		Cat: cat, Workers: 2,
		MemLimitBytes: spillBudget, SpillDir: t.TempDir(),
	}, cancelPlan())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	res.Root.Walk(func(sp *obs.Span, _ int) { seen[sp.Op] = true })
	for _, op := range []string{"spill-partition", "spill-probe"} {
		if !seen[op] {
			t.Fatalf("trace missing %q span; saw %v", op, seen)
		}
	}
}

// TestBudgetStillCancelsWithoutSpillableOperator: a plan with nothing to
// spill keeps the cancel-with-MemLimitError contract even when a spill
// directory is configured.
func TestBudgetStillCancelsWithoutSpillableOperator(t *testing.T) {
	cat := cancelCatalog()
	p := &OrderBy{
		Input: &Scan{Table: "orders"},
		Keys:  []exec.SortKey{{Column: "o_total", Desc: true}},
	}
	_, _, err := RunContext(&Context{
		Cat: cat, Workers: 2,
		MemLimitBytes: 1 << 10, SpillDir: t.TempDir(),
	}, p)
	var mem *MemLimitError
	if !errors.As(err, &mem) {
		t.Fatalf("err = %v, want *MemLimitError (no spillable operator in plan)", err)
	}
}

// TestSpillDecisionIgnoresWorkers: the spill fan-out and resident prefix
// depend only on cardinalities and the budget.
func TestSpillDecisionIgnoresWorkers(t *testing.T) {
	ctx := &Context{MemLimitBytes: spillBudget, SpillDir: "x", spillOK: true}
	if !ctx.useSpillJoin(4_000, 120_000) {
		t.Fatal("join state above budget must take the spill path")
	}
	if ctx.useSpillJoin(100, 100) {
		t.Fatal("tiny join must stay in memory")
	}
	bits := spillBits(4_000, 120_000, spillBudget)
	if bits == 0 {
		t.Fatal("spill fan-out must partition")
	}
	if b2 := spillBits(4_000, 120_000, spillBudget); b2 != bits {
		t.Fatalf("spillBits not deterministic: %d vs %d", bits, b2)
	}
}
