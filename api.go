package wimpi

// This file is the library's public facade. The implementation lives
// under internal/ (per the repository layout); these aliases and
// constructors re-export the surface a downstream user needs: the
// engine, the TPC-H workload, the hardware simulation, the distributed
// cluster, and the study harness.

import (
	"io"

	"wimpi/internal/cluster"
	"wimpi/internal/colstore"
	"wimpi/internal/core"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

// Engine types.
type (
	// DB is the in-memory columnar database.
	DB = engine.DB
	// EngineConfig configures a DB.
	EngineConfig = engine.Config
	// QueryOpts shapes one DB.RunQuery call: worker cap, pool weight,
	// memory budget.
	QueryOpts = engine.QueryOpts
	// Result is a query outcome: answer table, work profile, host time.
	Result = engine.Result
	// Table is an immutable columnar table.
	Table = colstore.Table
	// Schema describes a table's columns.
	Schema = colstore.Schema
	// WorkCounters is the work profile kernels record during execution.
	WorkCounters = exec.Counters
	// PlanNode is one operator of a physical query plan (see package
	// plan for Scan, Filter, HashJoin, GroupBy, OrderBy, ...).
	PlanNode = plan.Node
)

// NewDB returns an empty database with the given parallelism.
func NewDB(workers int) *DB {
	return engine.NewDB(engine.Config{Workers: workers})
}

// FormatTable renders a result table as aligned text.
func FormatTable(t *Table, maxRows int) string { return engine.FormatTable(t, maxRows) }

// TPC-H workload.
type (
	// TPCHConfig parameterizes dataset generation (scale factor, seed).
	TPCHConfig = tpch.Config
	// TPCHDataset is a generated set of the eight TPC-H tables.
	TPCHDataset = tpch.Dataset
	// QueryParams carries qgen-style substitution parameters.
	QueryParams = tpch.Params
)

// GenerateTPCH builds a deterministic TPC-H dataset.
func GenerateTPCH(sf float64, seed uint64) *TPCHDataset {
	return tpch.Generate(tpch.Config{SF: sf, Seed: seed})
}

// TPCHQuery returns the physical plan for query n (1-22) with the
// specification's validation parameters.
func TPCHQuery(n int) (PlanNode, error) { return tpch.Query(n) }

// TPCHQueryParams returns query n with custom substitution parameters.
func TPCHQueryParams(n int, p QueryParams) (PlanNode, error) { return tpch.QueryP(n, p) }

// DefaultQueryParams returns the spec validation parameters;
// RandomQueryParams draws from the spec ranges.
func DefaultQueryParams() QueryParams           { return tpch.DefaultParams() }
func RandomQueryParams(seed uint64) QueryParams { return tpch.RandomParams(seed) }

// Hardware simulation.
type (
	// HardwareProfile is one of the paper's ten comparison points.
	HardwareProfile = hardware.Profile
	// CostModel converts work profiles into simulated runtimes.
	CostModel = hardware.Model
)

// Profiles returns all ten Table I comparison points; PiProfile the
// Raspberry Pi 3B+; ProfileByName a specific one.
func Profiles() []HardwareProfile                        { return hardware.Profiles() }
func PiProfile() HardwareProfile                         { return hardware.Pi() }
func ProfileByName(name string) (HardwareProfile, error) { return hardware.ByName(name) }

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() CostModel { return hardware.DefaultModel() }

// Distributed cluster.
type (
	// Coordinator drives a WimPi cluster over TCP.
	Coordinator = cluster.Coordinator
	// LocalCluster is an in-process cluster for tests and examples.
	LocalCluster = cluster.LocalCluster
	// WorkerConfig configures one cluster node.
	WorkerConfig = cluster.WorkerConfig
	// DistResult is a distributed query outcome.
	DistResult = cluster.DistResult
	// ClusterConfig configures the coordinator: addresses, deadlines,
	// retry policy, and fault-tolerance knobs.
	ClusterConfig = cluster.Config
	// RetryPolicy shapes the capped exponential backoff for RPCs.
	RetryPolicy = cluster.RetryPolicy
	// PartialClusterError reports a degraded load or query, with the
	// failed nodes and (under AllowPartial) the partial merged result.
	PartialClusterError = cluster.PartialClusterError
	// NodeError is one node's terminal failure inside a cluster error.
	NodeError = cluster.NodeError
)

// StartLocalCluster launches n in-process workers on loopback TCP and
// returns a connected coordinator.
func StartLocalCluster(n int, cfg WorkerConfig, workersPerNode int) (*LocalCluster, error) {
	return cluster.StartLocal(n, cfg, workersPerNode)
}

// Study harness.
type (
	// StudyOptions parameterizes the full reproduction of the paper.
	StudyOptions = core.Options
	// Study holds every regenerated table and figure.
	Study = core.Study
)

// DefaultStudyOptions returns the paper-shaped configuration.
func DefaultStudyOptions() StudyOptions { return core.DefaultOptions() }

// RunStudy regenerates every table and figure of the paper's evaluation,
// streaming progress to w (which may be nil), and returns the study plus
// its rendered report.
func RunStudy(opt StudyOptions, w io.Writer) (*Study, string, error) {
	h, err := core.NewHarness(opt)
	if err != nil {
		return nil, "", err
	}
	s, err := h.Run(w)
	if err != nil {
		return nil, "", err
	}
	return s, s.Report(h), nil
}
