package engine_test

// Work golden: the EXPLAIN ANALYZE span tree of all 22 TPC-H queries,
// planned from their SQL texts, under the default budgets, a forced
// spill, the fused engine and 1 Ki-row morsels, with the work each
// operator charged. The morsel block exists because an input splits
// across workers only when it is at least one morsel long: at the
// default 32 Ki rows few inputs at SF 0.01 do, and at 1 Ki the parallel
// paths of the scans, expressions, join keys, builds and probes, gathers
// and group-bys all run on TPC-H data (no sort input at this scale is
// that long). One line per span gives its depth, operator, label, rows,
// bytes and nonzero additive self counters; each query's header carries
// its nonzero high-water marks and, as other.<Field>, any additive
// charge no span saw. Wall clocks are left out. The counters are the
// inputs of the simulated Table II/III, so a refactor that claims "same
// work" has to leave this file byte-identical; a change that means to
// move work or change the tree regenerates it with -update and shows the
// diff in review.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite golden files")

// highWater names the exec.Counters fields that hold a query-wide mark
// rather than a sum. A span's SelfCounters keeps the mark as it stood
// when the span closed, so only the query's final value is rendered, on
// its header.
var highWater = map[string]bool{
	"MaxHashBytes": true, "PeakLiveBytes": true, "MaxPartitionBytes": true, "ResidentCapBytes": true,
}

// TestSpansGolden renders every block at 2, 4 and 8 workers and requires
// one text, and requires each query's rendered work to account for every
// counter of an untraced run at the same worker count. One worker is not
// rendered: it takes every kernel's sequential path, whose shortcuts skip
// the partition and merge passes and so charge less.
func TestSpansGolden(t *testing.T) {
	data := spillSuiteDataset() // SF 0.01, seed 42
	blocks := []struct {
		name   string
		cfg    engine.Config
		morsel int // rows per morsel; 0 is exec.DefaultMorselRows
	}{
		{"default", engine.Config{}, 0},
		{"spill", engine.Config{MemBudgetBytes: spillBudgetBytes, SpillDir: t.TempDir()}, 0},
		{"fused", engine.Config{Exec: plan.ExecFused}, 0},
		{"morsel", engine.Config{}, 1 << 10},
	}
	defer engine.SetMorselRows(0)
	var got string
	for _, w := range []int{2, 4, 8} {
		var sb strings.Builder
		for _, b := range blocks {
			cfg := b.cfg
			cfg.Workers = w
			db := engine.NewDB(cfg)
			data.RegisterAll(db)
			engine.SetMorselRows(b.morsel)
			for _, q := range tpch.QueryNumbers() {
				writeQuery(t, &sb, db, b.name, q)
			}
		}
		if w == 2 {
			got = sb.String()
		} else if sb.String() != got {
			t.Errorf("workers=%d renders differently from workers=2 (first difference: %s)", w, firstDiff(sb.String(), got))
		}
	}

	path := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("span trees differ from %s (first difference: %s)", path, firstDiff(got, string(want)))
	}
}

// writeQuery renders one traced query: its header, then one line per
// span in pre-order. The span sums plus the header's marks and other.*
// charges must equal the counters of the same query run untraced.
func writeQuery(t *testing.T, sb *strings.Builder, db *engine.DB, block string, q int) {
	t.Helper()
	pl, err := sql.Plan(db, tpch.MustSQL(q), sql.Options{UniqueKeys: tpch.TableKeys()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.RunTraced(pl.Node)
	if err != nil {
		// A plan with no join plan.Spillable can see has nothing to
		// spill; the budget cancels it.
		fmt.Fprintf(sb, "== %s Q%d\nerror: %v\n", block, q, err)
		return
	}
	other := exec.DiffCounters(res.Root.Counters, res.Counters)
	fmt.Fprintf(sb, "== %s Q%d%s%s\n", block, q, fields(res.Counters, true, ""), fields(other, false, "other."))
	sum := other
	res.Root.Walk(func(sp *obs.Span, depth int) {
		self := sp.SelfCounters()
		fmt.Fprintf(sb, "%d %s %q rows=%d bytes=%d%s\n", depth, sp.Op, sp.Label, sp.Rows, sp.Bytes, fields(self, false, ""))
		sum.Add(self)
	})
	plain, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
	if err != nil {
		t.Fatalf("%s Q%d untraced: %v", block, q, err)
	}
	if sum != plain.Counters {
		t.Errorf("%s Q%d workers=%d: spans and header sum to\n%+v\nuntraced run charged\n%+v", block, q, db.Workers(), sum, plain.Counters)
	}
}

// fields renders c's nonzero high-water or additive fields, in struct
// order, as " <prefix><Field>=<n>".
func fields(c exec.Counters, marks bool, prefix string) string {
	var b strings.Builder
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || highWater[f.Name] != marks {
			continue
		}
		if n := v.Field(i).Int(); n != 0 {
			fmt.Fprintf(&b, " %s%s=%d", prefix, f.Name, n)
		}
	}
	return b.String()
}

// firstDiff names the first line where two renderings diverge, with the
// "== block Qn" header it sits under.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	section := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if strings.HasPrefix(g[i], "== ") {
			section = g[i]
		}
		if g[i] != w[i] {
			return fmt.Sprintf("%s: got %q, want %q", section, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}
