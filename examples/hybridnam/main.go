// Example hybridnam: the paper's Section III-C.1 future direction — a
// hybrid (network-attached-memory style) cluster where a traditional
// server fronts the wimpy workers. The server hosts the replicated
// tables and takes over memory-hungry single-node work (TPC-H Q13),
// while the Pi workers keep scanning their lineitem partitions.
package main

import (
	"fmt"
	"log"

	"wimpi/internal/cluster"
	"wimpi/internal/hardware"
	"wimpi/internal/tpch"
)

func main() {
	const (
		nodes = 6
		sf    = 0.05
		seed  = 42
	)
	full := tpch.Generate(tpch.Config{SF: sf, Seed: seed})
	lc, err := cluster.StartLocal(nodes, cluster.WorkerConfig{
		Source: cluster.SharedSource(full),
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer lc.Close()
	stmts, err := tpch.Statements([]int{6, 13})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := lc.Coordinator.LoadSQL(sf, seed, stmts); err != nil {
		log.Fatal(err)
	}
	hybrid, err := cluster.NewHybrid(lc.Coordinator, full, 4)
	if err != nil {
		log.Fatal(err)
	}

	// Simulate at the paper's geometry: each Pi node has RAM scaled to
	// the dataset, so Q13's working set (orders + hash table) does not
	// fit on one Pi — the paper's worst case.
	opt := cluster.DefaultSimOptions()
	opt.NodeProfile.RAMBytes = int64(float64(hardware.Pi().RAMBytes) * sf / 10)
	server, err := hardware.ByName("op-e5")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hybrid cluster: %d Pi workers + 1 op-e5 front end, TPC-H SF %g\n\n", nodes, sf)
	for _, q := range []int{6, 13} {
		plain, err := lc.Coordinator.RunSQL(q)
		if err != nil {
			log.Fatal(err)
		}
		plainSim := cluster.Simulate(plain, opt)

		hres, err := hybrid.Run(q)
		if err != nil {
			log.Fatal(err)
		}
		hybridSim := cluster.SimulateHybrid(hres, opt, server)

		where := "workers"
		if hres.NodesUsed == 0 {
			where = "front end"
		}
		fmt.Printf("Q%-3d plain WimPi: %8.3fs (thrash: %v)\n", q, plainSim.Total, plainSim.Thrashed)
		fmt.Printf("     hybrid:      %8.3fs (ran on %s)\n", hybridSim.Total, where)
		if hres.NodesUsed == 0 {
			fmt.Printf("     -> the server front end absorbs the memory-hungry work (%.0fx faster)\n",
				plainSim.Total/hybridSim.Total)
		} else {
			fmt.Println("     -> scan-parallel queries stay on the wimpy workers (server only merges)")
		}
		fmt.Println()
	}
}
