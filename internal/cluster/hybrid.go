package cluster

import (
	"context"
	"fmt"

	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

// This file implements the paper's Section III-C.1 "hybrid cluster"
// direction (network-attached memory): a traditional server fronts the
// wimpy workers, hosting the replicated tables and taking over the
// memory-hungry tasks — queries that touch no partitioned table (Q13)
// and the merge step. The workers keep doing what they are good at:
// bandwidth-parallel scans of their lineitem partitions.

// HybridCoordinator wraps a Coordinator with a local engine over the
// replicated tables, so single-node queries run on the front-end server
// instead of one overwhelmed Pi.
type HybridCoordinator struct {
	// Coordinator drives the worker fleet.
	*Coordinator

	localDB *engine.DB
}

// NewHybrid builds a hybrid front end around an existing coordinator.
// The replicated tables are taken from full (the same dataset the
// workers partition); lineitem is not loaded locally.
func NewHybrid(c *Coordinator, full *tpch.Dataset, workers int) (*HybridCoordinator, error) {
	if workers < 1 {
		workers = 1
	}
	// The front end inherits the coordinator's execution mode so local
	// and distributed plans are chosen the same way cluster-wide.
	mode, err := plan.ParseExecMode(c.cfg.Exec)
	if err != nil {
		return nil, err
	}
	db := engine.NewDB(engine.Config{Workers: workers, Exec: mode})
	//lint:allow taintflow -- registration into the DB's table map; iteration order is invisible
	for name, t := range full.Tables {
		if name == "lineitem" {
			continue
		}
		db.Register(t)
	}
	if len(db.TableNames()) == 0 {
		return nil, fmt.Errorf("cluster: hybrid front end got an empty dataset")
	}
	return &HybridCoordinator{Coordinator: c, localDB: db}, nil
}

// Run executes a distributed query; queries that touch no partitioned
// table execute locally on the front-end server.
func (h *HybridCoordinator) Run(q int) (*DistResult, error) {
	dq, err := tpch.DistQueryFor(q)
	if err != nil {
		return nil, err
	}
	if !dq.SingleNode {
		return h.Coordinator.Run(q)
	}
	res, err := h.localDB.RunQuery(context.Background(), dq.Partial(), engine.QueryOpts{})
	if err != nil {
		return nil, fmt.Errorf("cluster: hybrid local Q%d: %w", q, err)
	}
	return &DistResult{
		Query:         q,
		Table:         res.Table,
		NodeCounters:  nil,
		MergeCounters: res.Counters,
		NodesUsed:     0, // executed on the front end, not a worker
		HostDuration:  res.HostDuration,
	}, nil
}

// SimulateHybrid converts a hybrid run into simulated wall-clock:
// worker-side time on the node profile, front-end time (merge and
// single-node queries) on the coordinator profile.
func SimulateHybrid(res *DistResult, opt SimOptions, front hardware.Profile) SimBreakdown {
	var b SimBreakdown
	for _, ctr := range res.NodeCounters {
		ex := opt.Model.Explain(&opt.NodeProfile, ctr, opt.NodeProfile.TotalCores())
		if ex.Total > b.NodeSeconds {
			b.NodeSeconds = ex.Total
		}
		if ex.SwapSeconds > 0 {
			b.Thrashed = true
		}
	}
	if res.NodesUsed > 0 && opt.LinkBandwidthBps > 0 {
		b.NetworkSeconds = float64(res.BytesReceived*8)/opt.LinkBandwidthBps +
			opt.PerMessageLatency.Seconds()*float64(res.NodesUsed)
	}
	fe := opt.Model.Explain(&front, res.MergeCounters, front.TotalCores())
	b.MergeSeconds = fe.Total
	if fe.SwapSeconds > 0 {
		b.Thrashed = true
	}
	b.Total = b.NodeSeconds + b.NetworkSeconds + b.MergeSeconds
	return b
}

// CountersTotal is a small helper summing a result's node counters,
// used by reports and tests.
func CountersTotal(res *DistResult) exec.Counters {
	var total exec.Counters
	for _, c := range res.NodeCounters {
		total.Add(c)
	}
	total.Add(res.MergeCounters)
	return total
}
