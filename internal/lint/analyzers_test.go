package lint_test

import (
	"testing"

	"wimpi/internal/lint"
	"wimpi/internal/lint/linttest"
)

// Each fixture contains intentional violations (proving the analyzer
// catches them) and allowlisted or conforming negatives (proving the
// directive and the happy paths stay silent).

func TestCtxCheckFixture(t *testing.T) {
	linttest.Run(t, "testdata/ctxcheck", lint.CtxCheck)
}

func TestCloseCheckFixture(t *testing.T) {
	linttest.Run(t, "testdata/closecheck", lint.CloseCheck)
}

func TestTaintFlowFixture(t *testing.T) {
	linttest.Run(t, "testdata/taintflow", lint.TaintFlow)
}

func TestPathCostFixture(t *testing.T) {
	linttest.Run(t, "testdata/pathcost", lint.PathCost)
}

func TestExhaustiveFixture(t *testing.T) {
	linttest.Run(t, "testdata/exhaustive", lint.Exhaustive)
}

func TestUnusedDirectiveFixture(t *testing.T) {
	linttest.RunAll(t, "testdata/unuseddirective", lint.TaintFlow)
}

func TestSuiteScoping(t *testing.T) {
	cases := []struct {
		pkg  string
		want []string
	}{
		{"wimpi/internal/exec", []string{"taintflow", "pathcost", "exhaustive", "closecheck"}},
		{"wimpi/internal/exec/fused", []string{"taintflow", "pathcost", "exhaustive", "closecheck"}},
		{"wimpi/internal/cluster", []string{"taintflow", "ctxcheck", "closecheck"}},
		{"wimpi/internal/cluster/faultconn", []string{"taintflow", "ctxcheck", "closecheck"}},
		{"wimpi/internal/plan", []string{"taintflow", "exhaustive", "closecheck"}},
		{"wimpi/internal/flow", []string{"taintflow"}},
		{"wimpi/internal/serve", []string{"taintflow", "closecheck"}},
		{"wimpi/internal/sql", []string{"taintflow", "exhaustive", "closecheck"}},
		{"wimpi/internal/spill", []string{"pathcost", "ctxcheck"}},
		{"wimpi/internal/hardware", nil},
		{"wimpi/cmd/wimpi-bench", nil},
	}
	for _, c := range cases {
		var got []string
		for _, a := range lint.AnalyzersFor(c.pkg) {
			got = append(got, a.Name)
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: analyzers %v, want %v", c.pkg, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: analyzers %v, want %v", c.pkg, got, c.want)
				break
			}
		}
	}
}
