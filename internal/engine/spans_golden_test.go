package engine_test

// Span-shape golden: the EXPLAIN ANALYZE span tree of all 22 TPC-H
// queries, planned from their SQL texts, under the default budgets, a
// forced spill and the fused engine. One line per span gives its depth,
// operator, label, rows and bytes; wall clocks are left out. A change to
// how operators are traced has to leave this file byte-identical; one
// that means to change the tree regenerates it with -update and shows
// the diff in review.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wimpi/internal/engine"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

func TestSpansGolden(t *testing.T) {
	data := spillSuiteDataset() // SF 0.01, seed 42
	configs := []struct {
		name string
		cfg  engine.Config
	}{
		{"default", engine.Config{Workers: 2}},
		{"spill", engine.Config{Workers: 2, MemBudgetBytes: spillBudgetBytes, SpillDir: t.TempDir()}},
		{"fused", engine.Config{Workers: 2, Exec: plan.ExecFused}},
	}
	var sb strings.Builder
	for _, c := range configs {
		db := engine.NewDB(c.cfg)
		data.RegisterAll(db)
		for _, q := range tpch.QueryNumbers() {
			pl, err := sql.Plan(db, tpch.MustSQL(q), sql.Options{UniqueKeys: tpch.TableKeys()})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "== %s Q%d\n", c.name, q)
			res, err := db.RunTraced(pl.Node)
			if err != nil {
				// Joinless plans have nothing to spill; the budget cancels them.
				fmt.Fprintf(&sb, "error: %v\n", err)
				continue
			}
			res.Root.Walk(func(sp *obs.Span, depth int) {
				fmt.Fprintf(&sb, "%d %s %q rows=%d bytes=%d\n", depth, sp.Op, sp.Label, sp.Rows, sp.Bytes)
			})
		}
	}
	got := sb.String()

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
