package engine_test

// Work-profile golden: the exec.Counters of all 22 TPC-H queries under
// the three join regimes the planner can pick (chained at the default
// LLC budget, forced radix, forced spill). The counters are the inputs
// of the simulated Table II/III, so a refactor that claims "same work"
// has to leave this file byte-identical; a change that means to move
// work regenerates it with -update and shows the diff in review.

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
	"wimpi/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCountersGolden(t *testing.T) {
	data := spillSuiteDataset() // SF 0.01, seed 42
	configs := []struct {
		name string
		cfg  engine.Config
	}{
		{"default", engine.Config{}},
		{"radix", engine.Config{TargetLLCBytes: 1 << 14}},
		{"spill", engine.Config{MemBudgetBytes: spillBudgetBytes, SpillDir: t.TempDir()}},
	}
	var sb strings.Builder
	for _, c := range configs {
		db := engine.NewDB(c.cfg)
		data.RegisterAll(db)
		for _, q := range tpch.QueryNumbers() {
			p, err := tpch.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "== %s Q%d\n", c.name, q)
			res, err := db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: 2})
			if err != nil {
				// Joinless plans have nothing to spill; the budget cancels them.
				fmt.Fprintf(&sb, "error: %v\n", err)
				continue
			}
			v := reflect.ValueOf(res.Counters)
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					fmt.Fprintf(&sb, "%s %d\n", f.Name, v.Field(i).Int())
				}
			}
		}
	}
	got := sb.String()

	path := filepath.Join("testdata", "counters.golden")
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
		t.Errorf("work profile differs from %s (first difference: %s)", path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line where two renderings diverge, with the
// "== config Qn" header it sits under.
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
