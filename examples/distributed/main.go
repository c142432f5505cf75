// Example distributed: spin up an in-process WimPi cluster (eight
// workers on real loopback TCP connections with Pi-rate throttled
// links), partition TPC-H across it, run distributed queries, and
// compare against single-node execution — the paper's Table III workflow
// in miniature.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"wimpi/internal/cluster"
	"wimpi/internal/cluster/faultconn"
	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/tpch"
)

func main() {
	const (
		nodes = 8
		sf    = 0.02
		seed  = 42
	)

	// Workers throttled to the Pi 3B+'s effective 220 Mbit/s link.
	lc, err := cluster.StartLocal(nodes, cluster.WorkerConfig{
		LinkBandwidthBps: cluster.PiLinkBandwidthBps,
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer lc.Close()

	// First, reproduce the paper's iperf sanity check (§II-C.3).
	bps, err := cluster.MeasureLinkBandwidth(lc.Coordinator, 0, 2<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node link bandwidth: %.0f Mbit/s (paper measured ~220)\n", bps/1e6)

	// Load: each worker generates its partition (lineitem split on
	// l_orderkey, everything else replicated).
	stats, err := lc.Coordinator.Load(sf, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded SF %g across %d nodes in %v\n", sf, nodes, stats.Duration.Round(time.Millisecond))
	for i, b := range stats.NodeBytes {
		fmt.Printf("  node %d holds %.1f MB\n", i, float64(b)/(1<<20))
	}

	// A single-node engine over the same data, for verification.
	single := engine.NewDB(engine.Config{Workers: 2})
	tpch.Generate(tpch.Config{SF: sf, Seed: seed}).RegisterAll(single)

	for _, q := range []int{1, 6, 13} {
		dres, err := lc.Coordinator.Run(q)
		if err != nil {
			log.Fatal(err)
		}
		sres, err := single.RunQuery(context.Background(), tpch.MustQuery(q), engine.QueryOpts{})
		if err != nil {
			log.Fatal(err)
		}
		match := dres.Table.NumRows() == sres.Table.NumRows()
		fmt.Printf("\nQ%d: %d rows from %d node(s), %.1f KB over the wire, matches single-node: %v\n",
			q, dres.Table.NumRows(), dres.NodesUsed, float64(dres.BytesReceived)/1024, match)
		fmt.Print(engine.FormatTable(dres.Table, 4))
		sim := cluster.Simulate(dres, cluster.DefaultSimOptions())
		fmt.Printf("simulated on real WimPi hardware: %.3fs (node %.3fs + network %.3fs + merge %.3fs)\n",
			sim.Total, sim.NodeSeconds, sim.NetworkSeconds, sim.MergeSeconds)
	}

	faultTolerance(sf, seed)
}

// faultTolerance demonstrates the cluster runtime surviving injected
// failures: a crashed node's partition is re-dispatched to a healthy
// peer (which regenerates it deterministically), and the merged result
// stays byte-identical to the fault-free run.
func faultTolerance(sf float64, seed uint64) {
	const nodes = 3
	fmt.Println("\n== fault tolerance ==")

	// Baseline: a clean cluster for the reference answer.
	clean, err := cluster.StartLocal(nodes, cluster.WorkerConfig{}, 2)
	if err != nil {
		log.Fatal(err)
	}
	defer clean.Close()
	if _, err := clean.Coordinator.Load(sf, seed); err != nil {
		log.Fatal(err)
	}
	want, err := clean.Coordinator.Run(1)
	if err != nil {
		log.Fatal(err)
	}

	// Node 1 resets every query connection it is asked to serve; with
	// Redispatch, the coordinator re-issues its partition to a peer.
	plan := &faultconn.Plan{Seed: 7, Rules: []faultconn.Rule{
		{Node: 1, Op: faultconn.OpWrite, Phase: "query", Kind: faultconn.Reset, Times: -1},
	}}
	faulty, err := cluster.StartLocalFaulty(nodes, cluster.WorkerConfig{}, cluster.Config{
		WorkersPerNode: 2,
		Redispatch:     true,
		Retry:          cluster.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	}, plan)
	if err != nil {
		log.Fatal(err)
	}
	defer faulty.Close()
	if _, err := faulty.Coordinator.Load(sf, seed); err != nil {
		log.Fatal(err)
	}
	got, err := faulty.Coordinator.Run(1)
	if err != nil {
		log.Fatal(err)
	}
	identical, why := colstore.TablesIdentical(want.Table, got.Table)
	fmt.Printf("Q1 with node 1 crashing every attempt: %d re-dispatches, byte-identical to fault-free run: %v%s\n",
		got.Redispatches, identical, why)

	// Without Redispatch but with AllowPartial, the same failure yields
	// a typed PartialClusterError carrying the surviving partitions.
	partial, err := cluster.StartLocalFaulty(nodes, cluster.WorkerConfig{}, cluster.Config{
		WorkersPerNode: 2,
		AllowPartial:   true,
		Retry:          cluster.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond},
	}, plan)
	if err != nil {
		log.Fatal(err)
	}
	defer partial.Close()
	if _, err := partial.Coordinator.Load(sf, seed); err != nil {
		log.Fatal(err)
	}
	res, err := partial.Coordinator.Run(1)
	var perr *cluster.PartialClusterError
	if !errors.As(err, &perr) {
		log.Fatalf("expected PartialClusterError, got %v", err)
	}
	fmt.Printf("same failure with AllowPartial: %d/%d nodes answered, failed nodes %v, %d rows of partial coverage\n",
		res.NodesUsed, perr.Total, res.FailedNodes, res.Table.NumRows())
}
