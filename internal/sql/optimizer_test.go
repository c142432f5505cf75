package sql_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/obs"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares got against testdata/<name>, rewriting it under
// -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// reportDB builds a planning catalog over the shared fixture.
func reportDB(workers int) *engine.DB {
	db := engine.NewDB(engine.Config{Workers: workers})
	fixture().RegisterAll(db)
	return db
}

// TestOptimizerNeverPricesWorseThanCanonical is the core cost-model
// property: for every query and every reorder window, the chosen order's
// estimated cost must be at or below the canonical order's (ties keep
// canonical, so Chosen == Canonical there).
func TestOptimizerNeverPricesWorseThanCanonical(t *testing.T) {
	db := reportDB(4)
	for q := 1; q <= 22; q++ {
		text, err := tpch.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := sql.Plan(db, text, sql.Options{UniqueKeys: tpch.TableKeys()})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		for _, c := range pl.Report.Choices {
			if c.ChosenCost > c.CanonicalCost {
				t.Errorf("Q%d %s: chosen %v prices worse than canonical %v",
					q, c.Pipeline, c.ChosenCost, c.CanonicalCost)
			}
			if !c.Reordered && c.Chosen != c.Canonical {
				t.Errorf("Q%d %s: not reordered but orders differ", q, c.Pipeline)
			}
		}
	}
}

// TestOptimizerChoicesWorkerIndependent: planning depends only on the
// catalog, never on the execution worker count, so every node of a
// cluster (and every -workers setting) makes identical decisions.
func TestOptimizerChoicesWorkerIndependent(t *testing.T) {
	var base []string
	for i, workers := range []int{1, 2, 4, 8} {
		db := reportDB(workers)
		var rendered []string
		for q := 1; q <= 22; q++ {
			text, err := tpch.SQL(q)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := sql.Plan(db, text, sql.Options{UniqueKeys: tpch.TableKeys()})
			if err != nil {
				t.Fatalf("Q%d: %v", q, err)
			}
			rendered = append(rendered, obs.RenderPlanChoices(pl.Report.Choices))
		}
		if i == 0 {
			base = rendered
			continue
		}
		for q := range rendered {
			if rendered[q] != base[q] {
				t.Errorf("Q%d: plan choices differ between 1 and %d workers:\n%s\nvs\n%s",
					q+1, workers, base[q], rendered[q])
			}
		}
	}
}

// TestOptimizerSomeReorderHappens guards the demonstration requirement:
// at least one TPC-H query must actually pick a non-canonical join
// order under the default hardware model (Q2 moves the selective part
// join to the front of the offers pipeline).
func TestOptimizerSomeReorderHappens(t *testing.T) {
	db := reportDB(4)
	text, err := tpch.SQL(2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sql.Plan(db, text, sql.Options{UniqueKeys: tpch.TableKeys()})
	if err != nil {
		t.Fatal(err)
	}
	reordered := false
	for _, c := range pl.Report.Choices {
		if c.Reordered && c.ChosenCost < c.CanonicalCost {
			reordered = true
		}
	}
	if !reordered {
		t.Fatalf("Q2: expected a strictly cheaper join reorder, got:\n%s",
			obs.RenderPlanChoices(pl.Report.Choices))
	}
}

// TestNoOptKeepsCanonicalAndParity: disabling the optimizer keeps the
// canonical statement order and produces no choices, and the optimized
// plan — reordered joins, key filters — matches that canonical lowering
// byte for byte.
func TestNoOptKeepsCanonicalAndParity(t *testing.T) {
	db := reportDB(4)
	for q := 1; q <= 22; q++ {
		text, err := tpch.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := sql.Plan(db, text, sql.Options{UniqueKeys: tpch.TableKeys(), NoOpt: true})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if len(pl.Report.Choices) != 0 {
			t.Errorf("Q%d: NoOpt produced %d choices", q, len(pl.Report.Choices))
		}
		got, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		want, err := db.RunQuery(context.Background(), tpch.MustQuery(db, q), engine.QueryOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := colstore.TablesIdentical(got.Table, want.Table); !ok {
			t.Errorf("Q%d: optimized result differs from the NoOpt lowering: %s", q, diff)
		}
	}
}

// TestQ2ExplainGolden freezes the optimizer report for Q2 — the query
// where cost-based join reordering demonstrably beats the statement
// order (the part join is far more selective than supplier or nation,
// so it moves to the front of the offers pipeline).
func TestQ2ExplainGolden(t *testing.T) {
	db := reportDB(4)
	text, err := tpch.SQL(2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := sql.Plan(db, text, sql.Options{UniqueKeys: tpch.TableKeys()})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "q2_explain.golden", obs.RenderPlanChoices(pl.Report.Choices))
}

// TestPlansGolden freezes what the optimizer makes of all 22 statements:
// its report and the rendered plan, key filters included, so a change in
// placement or any later optimizer drift shows up as a reviewed diff.
func TestPlansGolden(t *testing.T) {
	db := reportDB(4)
	var b strings.Builder
	for q := 1; q <= 22; q++ {
		pl := planSQL(t, db, q)
		fmt.Fprintf(&b, "== Q%d\n%s%s\n", q, obs.RenderPlanChoices(pl.Report.Choices), pl.Node.Explain(0))
	}
	golden(t, "plans.golden", b.String())
}

// TestStrategyNotesMatchExecutor: EXPLAIN's build notes come from the
// executor's own decision, whose only resident layouts are positional
// and chained, so every note predicts a chained build past the
// positional bound.
func TestStrategyNotesMatchExecutor(t *testing.T) {
	db := reportDB(4)
	for q := 1; q <= 22; q++ {
		for _, c := range planSQL(t, db, q).Report.Choices {
			for _, note := range c.Notes {
				if !strings.Contains(note, " else chained build (") {
					t.Errorf("Q%d: %q does not predict a chained build past the positional bound", q, note)
				}
			}
		}
	}
}
