package cluster

import (
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/hardware"
	"wimpi/internal/tpch"
)

func TestHybridCoordinatorQ13RunsOnFrontEnd(t *testing.T) {
	full := tpch.Generate(tpch.Config{SF: 0.005, Seed: 42})
	lc, err := StartLocal(3, WorkerConfig{Source: SharedSource(full)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Coordinator.LoadSQL(0.005, 42, tpchSQL(t, 6, 13)); err != nil {
		t.Fatal(err)
	}
	hy, err := NewHybrid(lc.Coordinator, full, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Q13 executes on the front end: zero workers used, answer identical
	// to the plain distributed run.
	hres, err := hy.Run(13)
	if err != nil {
		t.Fatal(err)
	}
	if hres.NodesUsed != 0 {
		t.Errorf("hybrid Q13 used %d workers, want 0", hres.NodesUsed)
	}
	plain, err := lc.Coordinator.RunSQL(13)
	if err != nil {
		t.Fatal(err)
	}
	compareTables(t, 13, hres.Table, plain.Table)

	// Distributed queries still fan out to the workers.
	h6, err := hy.Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if h6.NodesUsed != 3 {
		t.Errorf("hybrid Q6 used %d workers, want 3", h6.NodesUsed)
	}
	p6, err := lc.Coordinator.RunSQL(6)
	if err != nil {
		t.Fatal(err)
	}
	compareTables(t, 6, h6.Table, p6.Table)

	// Statements the load did not ship error.
	if _, err := hy.Run(2); err == nil {
		t.Error("hybrid Run(2) should error")
	}
}

func TestSimulateHybridMovesMemoryPressure(t *testing.T) {
	full := tpch.Generate(tpch.Config{SF: 0.02, Seed: 7})
	lc, err := StartLocal(2, WorkerConfig{Source: SharedSource(full)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Coordinator.LoadSQL(0.02, 7, tpchSQL(t, 13)); err != nil {
		t.Fatal(err)
	}
	hy, err := NewHybrid(lc.Coordinator, full, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hy.Run(13)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate with a tiny node RAM so a Pi would thrash on Q13, and a
	// big-memory server as the hybrid front end.
	opt := DefaultSimOptions()
	opt.NodeProfile.RAMBytes = 1 << 20
	server, err := hardware.ByName("op-e5")
	if err != nil {
		t.Fatal(err)
	}

	// Plain WimPi: Q13 on a thrashing Pi node.
	plain, err := lc.Coordinator.RunSQL(13)
	if err != nil {
		t.Fatal(err)
	}
	plainSim := Simulate(plain, opt)
	if !plainSim.Thrashed {
		t.Fatalf("expected the 1 MB Pi node to thrash on Q13: %+v", plainSim)
	}
	// Hybrid: Q13 on the server front end.
	hybridSim := SimulateHybrid(res, opt, server)
	if hybridSim.Thrashed {
		t.Errorf("server front end should not thrash: %+v", hybridSim)
	}
	if hybridSim.Total >= plainSim.Total {
		t.Errorf("hybrid (%.3fs) should beat the thrashing Pi (%.3fs)",
			hybridSim.Total, plainSim.Total)
	}
}

func TestNewHybridValidation(t *testing.T) {
	lc, err := StartLocal(1, WorkerConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// A dataset with no non-lineitem tables is rejected.
	empty := &tpch.Dataset{Tables: map[string]*colstore.Table{}}
	if _, err := NewHybrid(lc.Coordinator, empty, 1); err == nil {
		t.Error("empty dataset should error")
	}

	full := tpch.Generate(tpch.Config{SF: 0.001, Seed: 1})
	hy, err := NewHybrid(lc.Coordinator, full, 0) // workers clamp to 1
	if err != nil {
		t.Fatal(err)
	}
	if hy == nil {
		t.Fatal("nil hybrid")
	}
	if _, err := hy.Run(13); err == nil {
		t.Error("hybrid Run before LoadSQL should error")
	}
	if _, err := lc.Coordinator.LoadSQL(0.001, 1, tpchSQL(t, 13)); err != nil {
		t.Fatal(err)
	}
	res, err := hy.Run(13)
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeCounters.TuplesScanned == 0 {
		t.Error("hybrid result has no merge counters")
	}
}
