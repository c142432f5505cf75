package plan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/jointest"
	"wimpi/internal/obs"
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
	want, err := RunContext(&Context{Cat: cat, Workers: 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ExecMode{ExecVector, ExecFused, ExecAuto} {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s-w%d", mode, w), func(t *testing.T) {
				got, err := RunContext(&Context{
					Cat: cat, Workers: w, Exec: mode,
					MemLimitBytes: spillBudget, SpillDir: t.TempDir(),
				}, p)
				if err != nil {
					t.Fatal(err)
				}
				if ok, why := colstore.TablesIdentical(want.Table, got.Table); !ok {
					t.Fatalf("spilled result differs from in-memory: %s", why)
				}
				ctr := got.Counters
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
				return handBuiltSpillJoiner(t, c, build, bits, resident)
			},
			// Partitions are morsels with counters of their own: nothing
			// depends on the worker count but who runs them.
			CountersFrom: 1,
			Check: func(t *testing.T, in jointest.Input, ctr, _ exec.Counters) {
				spilled := resident < 1<<bits && len(in.Build)+len(in.Probe) > 0
				if (ctr.SpillWriteBytes > 0) != spilled {
					t.Fatalf("resident %d of %d partitions: wrote %d spill bytes", resident, 1<<bits, ctr.SpillWriteBytes)
				}
				// Single visit: the build side's segment is read once by each
				// of the four probes, each probe's own segment once.
				writes := ctr.SpillWriteBytes
				if wantRead := writes + 3*buildSpillBytes(in.Build, bits, resident); ctr.SpillReadBytes != wantRead {
					t.Fatalf("resident %d of %d partitions: read %d spill bytes, want %d (wrote %d)",
						resident, 1<<bits, ctr.SpillReadBytes, wantRead, writes)
				}
			},
		})
	}
	jointest.Run(t, impls)
}

// handBuiltSpillJoiner builds a spill joiner over build with the fan-out
// and the resident prefix fixed by hand. c needs Ctr, MemLimitBytes and
// SpillDir; its spill area is closed with the test.
func handBuiltSpillJoiner(t *testing.T, c *Context, build []int64, bits uint, resident int) *spillJoiner {
	t.Helper()
	t.Cleanup(func() {
		if err := c.spillArea.Close(); err != nil {
			t.Error(err)
		}
	})
	rp, err := exec.RadixPartitionKeys(build, nil, bits, c.workers(), c.morselRows(), c.Ctr)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := c.newSpillJoiner(rp, resident)
	if err != nil {
		t.Fatal(err)
	}
	if err := sj.buildResident(); err != nil {
		t.Fatal(err)
	}
	return sj
}

// buildSpillBytes is the size of the segment a build side leaves beyond
// the first resident of its 2^bits partitions.
func buildSpillBytes(build []int64, bits uint, resident int) int64 {
	var n int64
	for _, k := range build {
		if exec.RadixOf(k, bits) >= resident {
			n += 12
		}
	}
	return n
}

// TestSpilledPartitionsLeaveMemory: what a side spills is reachable only
// through its segment — the joiner keeps right-sized copies of the
// resident prefix, not the scatter's arrays with the spilled rows still
// in them.
func TestSpilledPartitionsLeaveMemory(t *testing.T) {
	build := jointest.Inputs()[1].Build // uniform: every partition populated
	c := &Context{Ctr: &exec.Counters{}, Workers: 2, MemLimitBytes: 64 << 10, SpillDir: t.TempDir()}
	t.Cleanup(func() { c.spillArea.Close() })
	sj, err := c.buildSpillJoiner(build, 4*len(build))
	if err != nil {
		t.Fatal(err)
	}
	np, prefix := sj.rp.NumPartitions(), int(sj.rp.Off[sj.resident])
	if sj.resident == 0 || sj.resident == np {
		t.Fatalf("%d of %d partitions resident: the budget must split the build", sj.resident, np)
	}
	if len(sj.rp.Keys) != prefix || cap(sj.rp.Keys) != prefix || len(sj.rp.Rows) != prefix || cap(sj.rp.Rows) != prefix {
		t.Fatalf("resident prefix is %d rows, joiner holds keys %d/%d, rows %d/%d (len/cap)",
			prefix, len(sj.rp.Keys), cap(sj.rp.Keys), len(sj.rp.Rows), cap(sj.rp.Rows))
	}
	if sj.seg.Len() != len(build)-prefix || len(sj.tables) != sj.resident {
		t.Fatalf("segment holds %d of the %d rows beyond the prefix; %d tables for %d resident partitions",
			sj.seg.Len(), len(build)-prefix, len(sj.tables), sj.resident)
	}
}

// truncateSpillFiles cuts every file under dir to half its size.
func truncateSpillFiles(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n++
		return os.Truncate(path, info.Size()/2)
	})
	if err != nil || n == 0 {
		t.Fatalf("truncated %d spill files: %v", n, err)
	}
}

// TestSpillJoinTruncatedSegment: a build segment cut short between build
// and probe fails the query with a typed spill error — no panic, no
// result from a short partition — and the area is still cleaned up.
func TestSpillJoinTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	ctr := &exec.Counters{}
	tr := obs.NewTracer(ctr)
	tr.Hook = func(op, _ string) {
		if op == "spill-probe" {
			truncateSpillFiles(t, dir)
		}
	}
	res, err := RunContext(&Context{
		Cat: cancelCatalog(), Ctr: ctr, Workers: 2, Trace: tr,
		MemLimitBytes: spillBudget, SpillDir: dir,
	}, cancelPlan())
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "spill: read segment") {
		t.Fatalf("err = %v, want a spill: read error wrapping io.ErrUnexpectedEOF", err)
	}
	if res != nil {
		t.Fatal("got a result alongside the error")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("spill dir not cleaned up: %d entries left", len(ents))
	}
}

// TestSpillJoinCancelMidProbe cancels the query from inside a partition
// morsel — so while partition morsels, spilled ones among them, are in
// flight — and requires the cancellation cause, no file of the probe left
// in the area, and no goroutine left behind.
func TestSpillJoinCancelMidProbe(t *testing.T) {
	in := jointest.Inputs()[1] // uniform
	cause := errors.New("test: cancelled mid-probe")
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			before := runtime.NumGoroutine()
			sched := exec.NewSched(context.Background())
			defer sched.Release()
			ctr := &exec.Counters{}
			ctr.SetSched(sched)
			c := &Context{Ctr: ctr, Sched: sched, Workers: w, MorselRows: 1000, MemLimitBytes: 1 << 20, SpillDir: t.TempDir()}
			sj := handBuiltSpillJoiner(t, c, in.Build, 4, 3)
			var visited atomic.Int32
			err := sj.probePass(in.Probe, w, 1000, ctr, func(p int, _ *exec.PartTable, _ []int64, _ []int32, _ *exec.Counters) {
				if visited.Add(1) == 6 { // the third spilled partition at w=1
					sched.Cancel(cause)
				}
			})
			if !errors.Is(err, cause) {
				t.Fatalf("err = %v, want the cancellation cause", err)
			}
			if n := visited.Load(); n < 6 || n >= 16 {
				t.Fatalf("%d of 16 partitions visited: the cancellation must land mid-pass", n)
			}
			ents, err := os.ReadDir(c.spillArea.Dir())
			if err != nil || len(ents) != 1 {
				t.Fatalf("area holds %d files (%v), want only the build side's segment", len(ents), err)
			}
			if _, _, err := sj.InnerJoin(in.Probe, w, 1000, ctr); !errors.Is(err, cause) {
				t.Fatalf("probe of a cancelled query: err = %v", err)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestSpillAreaRemovedAfterRun: the per-query spill area (and every
// segment in it) is gone once RunContext returns.
func TestSpillAreaRemovedAfterRun(t *testing.T) {
	cat := cancelCatalog()
	dir := t.TempDir()
	_, err := RunContext(&Context{
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
	res, err := RunContext(&Context{
		Cat: cat, Workers: 2, Trace: &obs.Tracer{},
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
	_, err := RunContext(&Context{
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
