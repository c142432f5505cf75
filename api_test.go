package wimpi_test

import (
	"context"
	"io"
	"strings"
	"testing"

	"wimpi"
	"wimpi/internal/plan"
)

// TestPublicFacade drives the whole library through the root package's
// public surface, the way a downstream user would.
func TestPublicFacade(t *testing.T) {
	data := wimpi.GenerateTPCH(0.005, 7)
	db := wimpi.NewDB(2)
	data.RegisterAll(db)

	q, err := wimpi.TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.RunQuery(context.Background(), q, wimpi.QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Fatalf("Q6 rows = %d", res.Table.NumRows())
	}
	if s := wimpi.FormatTable(res.Table, 5); !strings.Contains(s, "revenue") {
		t.Errorf("FormatTable output: %q", s)
	}

	// Custom parameters through the facade.
	p := wimpi.RandomQueryParams(3)
	qp, err := wimpi.TPCHQueryParams(6, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunQuery(context.Background(), qp, wimpi.QueryOpts{}); err != nil {
		t.Fatal(err)
	}
	if wimpi.DefaultQueryParams().Q1Delta != 90 {
		t.Error("default params wrong")
	}

	// Hardware simulation through the facade.
	pi := wimpi.PiProfile()
	model := wimpi.DefaultCostModel()
	if d := model.QueryTime(&pi, res.Counters, 4); d <= 0 {
		t.Error("simulated time not positive")
	}
	if len(wimpi.Profiles()) != 10 {
		t.Error("profiles missing")
	}
	if _, err := wimpi.ProfileByName("op-e5"); err != nil {
		t.Error(err)
	}

	// A hand-built plan using the re-exported node types.
	var node wimpi.PlanNode = &plan.Limit{Input: &plan.Scan{Table: "orders"}, N: 3}
	lres, err := db.RunQuery(context.Background(), node, wimpi.QueryOpts{})
	if err != nil || lres.Table.NumRows() != 3 {
		t.Fatalf("custom plan: %v", err)
	}

	// Distributed execution through the facade.
	lc, err := wimpi.StartLocalCluster(2, wimpi.WorkerConfig{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Coordinator.Load(0.005, 7); err != nil {
		t.Fatal(err)
	}
	dres, err := lc.Coordinator.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Table.NumRows() != res.Table.NumRows() {
		t.Error("distributed result diverges")
	}
}

func TestPublicStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full study")
	}
	opt := wimpi.DefaultStudyOptions()
	opt.SF, opt.DistSF = 0.02, 0.02
	opt.ClusterSizes = []int{2, 4}
	study, report, err := wimpi.RunStudy(opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.TableII.Seconds) != 22 || !strings.Contains(report, "== Paper claims ==") {
		t.Error("study incomplete")
	}
}
