// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices called out in DESIGN.md.
//
// The scale factor defaults to a laptop-friendly 0.05 and can be raised
// with WIMPI_BENCH_SF (the paper's Table II uses SF 1):
//
//	WIMPI_BENCH_SF=1 go test -bench=. -benchmem
package wimpi_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"wimpi/internal/cluster"
	"wimpi/internal/colstore"
	"wimpi/internal/core"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/microbench"
	"wimpi/internal/plan"
	"wimpi/internal/strategies"
	"wimpi/internal/tpch"
)

func benchSF() float64 {
	if s := os.Getenv("WIMPI_BENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

var (
	fixOnce sync.Once
	fixData *tpch.Dataset
	fixDB   *engine.DB
)

func fixture(b *testing.B) (*tpch.Dataset, *engine.DB) {
	b.Helper()
	fixOnce.Do(func() {
		fixData = tpch.Generate(tpch.Config{SF: benchSF(), Seed: 42})
		fixDB = engine.NewDB(engine.Config{Workers: 0})
		fixData.RegisterAll(fixDB)
	})
	return fixData, fixDB
}

func newHarness(b *testing.B) *core.Harness {
	b.Helper()
	opt := core.DefaultOptions()
	opt.SF = benchSF()
	opt.DistSF = benchSF()
	opt.ClusterSizes = []int{4, 8, 24}
	h, err := core.NewHarness(opt)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkTableI renders the hardware-specification table.
func BenchmarkTableI(b *testing.B) {
	h := newHarness(b)
	for i := 0; i < b.N; i++ {
		if h.TableIText() == "" {
			b.Fatal("empty table")
		}
	}
}

// The Figure 2 benchmarks run the real microbenchmark kernels the paper
// used to compare the Pi against server CPUs.

// BenchmarkFigure2Whetstone runs the Whetstone floating-point kernel.
func BenchmarkFigure2Whetstone(b *testing.B) {
	r := microbench.RunWhetstone(b.N + 1000)
	b.ReportMetric(r.Score, "MWIPS")
}

// BenchmarkFigure2Dhrystone runs the Dhrystone integer kernel.
func BenchmarkFigure2Dhrystone(b *testing.B) {
	r := microbench.RunDhrystone(b.N + 10000)
	b.ReportMetric(r.Score, "DMIPS")
}

// BenchmarkFigure2Sysbench runs the sysbench prime-search kernel.
func BenchmarkFigure2Sysbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		microbench.RunSysbenchCPU(5000)
	}
}

// BenchmarkFigure2Membw runs the sequential memory-bandwidth kernel.
func BenchmarkFigure2Membw(b *testing.B) {
	var gbps float64
	for i := 0; i < b.N; i++ {
		gbps = microbench.RunMemBW(8 << 20).Score
	}
	b.ReportMetric(gbps, "GB/s")
}

// BenchmarkParallelScaling runs Q1/Q3/Q6/Q18 at 1, 2, 4, and 8 workers
// and reports each configuration's speedup over its query's one-worker
// run. On a single-core host the speedups hover near 1; on a Pi-class
// quad core the aggregation-heavy queries should clear 2x at 4 workers.
func BenchmarkParallelScaling(b *testing.B) {
	_, db := fixture(b)
	base := map[int]float64{} // query -> 1-worker ns/op
	for _, q := range []int{1, 3, 6, 18} {
		for _, w := range []int{1, 2, 4, 8} {
			q, w := q, w
			b.Run(fmt.Sprintf("Q%d/workers=%d", q, w), func(b *testing.B) {
				p := tpch.MustQuery(q)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.RunQuery(context.Background(), p, engine.QueryOpts{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				nsop := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				if w == 1 {
					base[q] = nsop
				}
				if base[q] > 0 {
					b.ReportMetric(base[q]/nsop, "speedup-vs-1w")
				}
			})
		}
	}
}

// BenchmarkTableII runs each of the 22 TPC-H queries (one sub-benchmark
// per query) and reports the simulated Pi 3B+ and op-e5 runtimes.
func BenchmarkTableII(b *testing.B) {
	_, db := fixture(b)
	model := hardware.DefaultModel()
	pi := hardware.Pi()
	e5, _ := hardware.ByName("op-e5")
	for _, q := range tpch.QueryNumbers() {
		q := q
		b.Run(fmt.Sprintf("Q%d", q), func(b *testing.B) {
			var ctr exec.Counters
			for i := 0; i < b.N; i++ {
				res, err := db.RunQuery(context.Background(), tpch.MustQuery(q), engine.QueryOpts{})
				if err != nil {
					b.Fatal(err)
				}
				ctr = res.Counters
			}
			b.ReportMetric(model.QueryTime(&pi, ctr, 4).Seconds()*1000, "simPi-ms")
			b.ReportMetric(model.QueryTime(&e5, ctr, 0).Seconds()*1000, "simE5-ms")
		})
	}
}

// BenchmarkTableIII runs the eight representative queries on a real
// 4-node in-process TCP cluster and reports the simulated WimPi time.
func BenchmarkTableIII(b *testing.B) {
	data, _ := fixture(b)
	lc, err := cluster.StartLocal(4, cluster.WorkerConfig{Source: cluster.SharedSource(data)}, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Coordinator.Load(benchSF(), 42); err != nil {
		b.Fatal(err)
	}
	opt := cluster.DefaultSimOptions()
	for _, q := range tpch.RepresentativeQueries {
		q := q
		b.Run(fmt.Sprintf("Q%d", q), func(b *testing.B) {
			var sim cluster.SimBreakdown
			for i := 0; i < b.N; i++ {
				res, err := lc.Coordinator.Run(q)
				if err != nil {
					b.Fatal(err)
				}
				sim = cluster.Simulate(res, opt)
			}
			b.ReportMetric(sim.Total*1000, "simWimPi4-ms")
		})
	}
}

// BenchmarkFigure3 derives the speedup figure from fresh Table II/III
// runs.
func BenchmarkFigure3(b *testing.B) {
	h := newHarness(b)
	t2, err := h.TableII()
	if err != nil {
		b.Fatal(err)
	}
	t3, err := h.TableIII()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := h.Figure3(t2, t3); len(f.SF1) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure4 executes the three hand-coded strategies per query.
func BenchmarkFigure4(b *testing.B) {
	data, _ := fixture(b)
	for _, s := range strategies.Strategies {
		s := s
		b.Run(string(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range strategies.Queries {
					if _, _, err := strategies.Execute(s, q, data); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// benchNormalized measures one of the cost/energy figures.
func benchNormalized(b *testing.B, f func(*core.Harness, *core.TableIIResult, *core.TableIIIResult) (*core.NormalizedResult, error)) {
	h := newHarness(b)
	t2, err := h.TableII()
	if err != nil {
		b.Fatal(err)
	}
	t3, err := h.TableIII()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := f(h, t2, t3)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.SF1) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFigure5 regenerates the MSRP-normalized comparison.
func BenchmarkFigure5(b *testing.B) {
	benchNormalized(b, func(h *core.Harness, t2 *core.TableIIResult, t3 *core.TableIIIResult) (*core.NormalizedResult, error) {
		return h.Figure5(t2, t3)
	})
}

// BenchmarkFigure6 regenerates the hourly-cost-normalized comparison.
func BenchmarkFigure6(b *testing.B) {
	benchNormalized(b, func(h *core.Harness, t2 *core.TableIIResult, t3 *core.TableIIIResult) (*core.NormalizedResult, error) {
		return h.Figure6(t2, t3)
	})
}

// BenchmarkFigure7 regenerates the TDP-energy-normalized comparison.
func BenchmarkFigure7(b *testing.B) {
	benchNormalized(b, func(h *core.Harness, t2 *core.TableIIResult, t3 *core.TableIIIResult) (*core.NormalizedResult, error) {
		return h.Figure7(t2, t3)
	})
}

// BenchmarkNetworkBandwidth reproduces the Section II-C.3 iperf check
// over the throttled loopback link.
func BenchmarkNetworkBandwidth(b *testing.B) {
	lc, err := cluster.StartLocal(1, cluster.WorkerConfig{LinkBandwidthBps: cluster.PiLinkBandwidthBps}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	var bps float64
	for i := 0; i < b.N; i++ {
		bps, err = cluster.MeasureLinkBandwidth(lc.Coordinator, 0, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bps/1e6, "Mbit/s")
}

// --- Ablations (DESIGN.md "design choices worth ablating") ---

// BenchmarkAblationDictVsRawLike ablates dictionary encoding: a LIKE
// predicate evaluated once per distinct value through the dictionary
// versus once per row over raw strings (what the paper's §III-C.2
// compression discussion is about).
func BenchmarkAblationDictVsRawLike(b *testing.B) {
	data, _ := fixture(b)
	orders := data.Tables["orders"]
	col := orders.MustCol("o_comment").(*colstore.Strings)
	raw := make([]string, col.Len())
	for i := range raw {
		raw[i] = col.Value(i)
	}
	b.Run("dict", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			var ctr exec.Counters
			mask := exec.LikeMask(col.Dict, "%special%requests%", &ctr)
			sel := exec.SelStrMask(col, mask, nil, &ctr)
			n = len(sel)
		}
		b.ReportMetric(float64(n), "matches")
	})
	b.Run("raw", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = 0
			for _, s := range raw {
				if exec.MatchLike(s, "%special%requests%") {
					n++
				}
			}
		}
		b.ReportMetric(float64(n), "matches")
	})
}

// BenchmarkAblationMaterializedVsFused ablates the engine's full
// materialization (MonetDB-style plan execution) against a fused
// tuple-at-a-time loop for Q6 — the data-centric/access-aware axis of
// Figure 4.
func BenchmarkAblationMaterializedVsFused(b *testing.B) {
	data, db := fixture(b)
	b.Run("materialized-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.RunQuery(context.Background(), tpch.MustQuery(6), engine.QueryOpts{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fused-datacentric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := strategies.Execute(strategies.DataCentric, 6, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPartialAggVsShipRows ablates the paper's §III-C.3
// driver design: shipping partial aggregates to the coordinator versus
// shipping the qualifying rows (what MonetDB's built-in distributed
// planner did, grinding the cluster to a halt). Wire volume is the
// reported metric.
func BenchmarkAblationPartialAggVsShipRows(b *testing.B) {
	data, _ := fixture(b)
	lc, err := cluster.StartLocal(4, cluster.WorkerConfig{Source: cluster.SharedSource(data)}, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Coordinator.Load(benchSF(), 42); err != nil {
		b.Fatal(err)
	}
	b.Run("partial-aggregates", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			res, err := lc.Coordinator.Run(1)
			if err != nil {
				b.Fatal(err)
			}
			bytes = res.BytesReceived
		}
		b.ReportMetric(float64(bytes)/1024, "wireKB")
	})
	b.Run("ship-rows", func(b *testing.B) {
		// The rows MonetDB's planner would have shipped: the qualifying
		// lineitem columns of every partition.
		li := data.Tables["lineitem"]
		qualifying, err := li.Project("l_returnflag", "l_linestatus", "l_quantity",
			"l_extendedprice", "l_discount", "l_tax")
		if err != nil {
			b.Fatal(err)
		}
		var bytes int64
		for i := 0; i < b.N; i++ {
			w := cluster.ToWire(qualifying)
			t, err := w.Table()
			if err != nil {
				b.Fatal(err)
			}
			bytes = t.SizeBytes()
		}
		b.ReportMetric(float64(bytes)/1024, "wireKB")
	})
}

// BenchmarkAblationThrottle ablates the Pi's USB-bus-limited NIC: the
// same transfer over an unthrottled versus a 220 Mbit/s link.
func BenchmarkAblationThrottle(b *testing.B) {
	for _, cfg := range []struct {
		name string
		bps  float64
	}{{"unthrottled", 0}, {"pi-220mbit", cluster.PiLinkBandwidthBps}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			lc, err := cluster.StartLocal(1, cluster.WorkerConfig{LinkBandwidthBps: cfg.bps}, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer lc.Close()
			var bps float64
			for i := 0; i < b.N; i++ {
				bps, err = cluster.MeasureLinkBandwidth(lc.Coordinator, 0, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(bps/1e6, "Mbit/s")
		})
	}
}

// BenchmarkAblationSwap ablates the §III-C.4 memory-pressure model: the
// same query simulated on a node whose RAM does or does not hold its
// working set.
func BenchmarkAblationSwap(b *testing.B) {
	_, db := fixture(b)
	res, err := db.RunQuery(context.Background(), tpch.MustQuery(1), engine.QueryOpts{})
	if err != nil {
		b.Fatal(err)
	}
	model := hardware.DefaultModel()
	for _, cfg := range []struct {
		name string
		ram  int64
	}{
		{"fits-in-ram", 64 << 30},
		{"thrashing", res.Counters.TouchedBaseBytes / 2},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			pi := hardware.Pi()
			pi.RAMBytes = cfg.ram
			var sim float64
			for i := 0; i < b.N; i++ {
				sim = model.QueryTime(&pi, res.Counters, 4).Seconds()
			}
			b.ReportMetric(sim*1000, "simPi-ms")
		})
	}
}

// BenchmarkJoinRadixVsChained measures the cache-conscious join layer:
// the chained hash table probed directly versus the radix-partitioned
// table whose per-partition footprint fits the Pi's 512 KiB LLC. Build
// sides sweep from below the Pi LLC to many times it; the probe side is
// 4x the build with a ~50% hit rate. Each variant reports host wall
// clock and the simulated Pi 3B+ time of its recorded work profile —
// the paper's methodology, and the metric on which the partitioned path
// must win once the build exceeds the target LLC (the dev host's own
// LLC is typically orders of magnitude larger than a wimpy node's, so
// the host-time crossover only appears at the WIMPI_BENCH_BIG=1 size
// that exceeds the host cache too). Results land in BENCH_join.json.
func BenchmarkJoinRadixVsChained(b *testing.B) {
	const workers, morselRows = 4, 4096
	target := int64(plan.DefaultLLCBytes)
	model := hardware.DefaultModel()
	pi := hardware.Pi()
	type joinBenchResult struct {
		BuildRows      int     `json:"build_rows"`
		ProbeRows      int     `json:"probe_rows"`
		TableBytes     int64   `json:"table_bytes"`
		LLCFactor      float64 `json:"llc_factor"`
		ChainedNsPerOp float64 `json:"chained_ns_per_op"`
		RadixNsPerOp   float64 `json:"radix_ns_per_op"`
		ChainedSimPiMs float64 `json:"chained_sim_pi_ms"`
		RadixSimPiMs   float64 `json:"radix_sim_pi_ms"`
		HostSpeedup    float64 `json:"host_speedup"`
		SimPiSpeedup   float64 `json:"sim_pi_speedup"`
	}
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	if os.Getenv("WIMPI_BENCH_BIG") != "" {
		// Big enough that the chained table also overflows a server-class
		// host LLC, so the crossover shows up in host wall clock too.
		sizes = append(sizes, 8<<20)
	}
	var results []joinBenchResult
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		build := make([]int64, n)
		for i := range build {
			build[i] = rng.Int63()
		}
		probe := make([]int64, 4*n)
		for i := range probe {
			if i%2 == 0 {
				probe[i] = build[rng.Intn(n)]
			} else {
				probe[i] = rng.Int63()
			}
		}
		res := joinBenchResult{
			BuildRows:  n,
			ProbeRows:  len(probe),
			TableBytes: exec.JoinTableBytes(n),
			LLCFactor:  float64(exec.JoinTableBytes(n)) / float64(target),
		}
		b.Run(fmt.Sprintf("rows=%d-llcx=%.1f/chained", n, res.LLCFactor), func(b *testing.B) {
			var ctr exec.Counters
			for i := 0; i < b.N; i++ {
				ctr = exec.Counters{}
				jt, err := exec.BuildJoinTableParallel(build, workers, morselRows, &ctr)
				if err != nil {
					b.Fatal(err)
				}
				if bi, _, err := jt.InnerJoin(probe, workers, morselRows, &ctr); err != nil || len(bi) == 0 {
					b.Fatal("empty join")
				}
			}
			res.ChainedNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			res.ChainedSimPiMs = model.OperatorTime(&pi, ctr, workers).Seconds() * 1000
			b.ReportMetric(res.ChainedSimPiMs, "simPi-ms")
		})
		b.Run(fmt.Sprintf("rows=%d-llcx=%.1f/radix", n, res.LLCFactor), func(b *testing.B) {
			var ctr exec.Counters
			for i := 0; i < b.N; i++ {
				ctr = exec.Counters{}
				rt, err := exec.BuildRadixJoinTable(build, target/2, exec.RadixJoinConfig{}, workers, morselRows, &ctr)
				if err != nil {
					b.Fatal(err)
				}
				if bi, _, err := rt.InnerJoin(probe, workers, morselRows, &ctr); err != nil || len(bi) == 0 {
					b.Fatal("empty join")
				}
			}
			res.RadixNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			res.RadixSimPiMs = model.OperatorTime(&pi, ctr, workers).Seconds() * 1000
			b.ReportMetric(res.RadixSimPiMs, "simPi-ms")
		})
		if res.RadixNsPerOp > 0 {
			res.HostSpeedup = res.ChainedNsPerOp / res.RadixNsPerOp
		}
		if res.RadixSimPiMs > 0 {
			res.SimPiSpeedup = res.ChainedSimPiMs / res.RadixSimPiMs
		}
		results = append(results, res)
	}
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_join.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	// Host and simulated-Pi speedups side by side: on a dev host with a
	// large LLC the radix join usually loses host wall clock (speedup
	// < 1) while winning on the simulated Pi — which is why the planner's
	// radix decision is priced on the target profile's cost model, never
	// on host timings.
	fmt.Printf("\njoin radix-vs-chained speedups (>1 = radix wins)\n")
	fmt.Printf("%12s %8s %14s %16s\n", "build_rows", "llc_x", "host_speedup", "sim_pi_speedup")
	for _, r := range results {
		fmt.Printf("%12d %8.1f %14.2f %16.2f\n", r.BuildRows, r.LLCFactor, r.HostSpeedup, r.SimPiSpeedup)
	}
}

// BenchmarkSpill traces the memory-wall trajectory the spill scheduler
// replaces: a join whose state sweeps from under the budget to ~20x it,
// run (a) unlimited and (b) under the budget through the on-disk spill
// path. Each point reports the host time of the spilled run and two
// simulated Pi times for the same budget-sized node: the spilled run
// priced by the sequential-spill model, and the unlimited run priced by
// the swap-thrash model (what the node would do if the engine let the
// OS page). The spilled trajectory must degrade smoothly (linear in the
// bytes beyond budget) where the swap model cliffs. Results land in
// BENCH_spill.json.
func BenchmarkSpill(b *testing.B) {
	const budget = 256 << 10
	const workers = 4
	model := hardware.DefaultModel()
	type spillBenchResult struct {
		BuildRows       int     `json:"build_rows"`
		ProbeRows       int     `json:"probe_rows"`
		StateBytes      int64   `json:"state_bytes"`
		BudgetBytes     int64   `json:"budget_bytes"`
		StateOverBudget float64 `json:"state_over_budget"`
		SpillWriteBytes int64   `json:"spill_write_bytes"`
		SpillReadBytes  int64   `json:"spill_read_bytes"`
		HostNsPerOp     float64 `json:"host_ns_per_op"`
		SimSpillPiMs    float64 `json:"sim_spill_pi_ms"`
		SimSwapPiMs     float64 `json:"sim_swap_pi_ms"`
	}
	mkTables := func(n int) (*colstore.Table, *colstore.Table) {
		bb := colstore.NewTableBuilder("build", colstore.Schema{{Name: "b_key", Type: colstore.Int64}})
		for i := 0; i < n; i++ {
			bb.Int(0, int64(i))
			bb.EndRow()
		}
		pb := colstore.NewTableBuilder("probe", colstore.Schema{{Name: "p_key", Type: colstore.Int64}})
		for i := 0; i < 4*n; i++ {
			pb.Int(0, int64(i%(2*n))) // ~50% hit rate
			pb.EndRow()
		}
		return bb.Build(), pb.Build()
	}
	query := &plan.HashJoin{
		Build:     &plan.Scan{Table: "build"},
		BuildKeys: []string{"b_key"},
		Probe:     &plan.Scan{Table: "probe"},
		ProbeKeys: []string{"p_key"},
		Kind:      plan.Semi,
	}
	var results []spillBenchResult
	for _, n := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		bt, pt := mkTables(n)
		free := engine.NewDB(engine.Config{Workers: workers})
		free.Register(bt)
		free.Register(pt)
		resFree, err := free.RunQuery(context.Background(), query, engine.QueryOpts{})
		if err != nil {
			b.Fatal(err)
		}
		budgeted := engine.NewDB(engine.Config{
			Workers: workers, MemBudgetBytes: budget, SpillDir: b.TempDir(),
		})
		budgeted.Register(bt)
		budgeted.Register(pt)
		// The join's in-memory state: build-side partition elements plus
		// the probe side the partition pass streams (12 bytes/row each
		// side, plus the built partition tables).
		state := int64(n)*(12+exec.RadixBuildBytesPerRow) + int64(4*n)*12
		res := spillBenchResult{
			BuildRows: n, ProbeRows: 4 * n,
			StateBytes: state, BudgetBytes: budget,
			StateOverBudget: float64(state) / float64(budget),
		}
		b.Run(fmt.Sprintf("statex=%.1f", res.StateOverBudget), func(b *testing.B) {
			var last *engine.Result
			for i := 0; i < b.N; i++ {
				r, err := budgeted.RunQuery(context.Background(), query, engine.QueryOpts{})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			if ok, why := colstore.TablesIdentical(resFree.Table, last.Table); !ok {
				b.Fatalf("spilled result differs: %s", why)
			}
			res.SpillWriteBytes = last.Counters.SpillWriteBytes
			res.SpillReadBytes = last.Counters.SpillReadBytes
			res.HostNsPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			// Price both runs for a node whose RAM fits the base data plus
			// exactly the budget: the spilled run stays resident by
			// construction, the unlimited run pages once state outgrows it.
			pi := hardware.Pi()
			pi.RAMBytes = resFree.Counters.TouchedBaseBytes + budget
			res.SimSpillPiMs = model.QueryTime(&pi, last.Counters, workers).Seconds() * 1000
			res.SimSwapPiMs = model.QueryTime(&pi, resFree.Counters, workers).Seconds() * 1000
			b.ReportMetric(res.SimSpillPiMs, "simSpill-ms")
			b.ReportMetric(res.SimSwapPiMs, "simSwap-ms")
		})
		results = append(results, res)
	}
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_spill.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	fmt.Printf("\nbudget-bounded spill vs swap-thrash trajectory (budget %d KiB)\n", budget>>10)
	fmt.Printf("%10s %12s %12s %14s %12s\n", "state_x", "spilled_KiB", "host_ms", "simSpill_ms", "simSwap_ms")
	for _, r := range results {
		fmt.Printf("%10.1f %12d %12.2f %14.2f %12.2f\n",
			r.StateOverBudget, r.SpillWriteBytes>>10, r.HostNsPerOp/1e6, r.SimSpillPiMs, r.SimSwapPiMs)
	}
}

// BenchmarkFullStudy regenerates every artifact end to end (the
// wimpi-bench command as a benchmark).
func BenchmarkFullStudy(b *testing.B) {
	if testing.Short() {
		b.Skip("full study")
	}
	for i := 0; i < b.N; i++ {
		h := newHarness(b)
		if _, err := h.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRLECompression ablates §III-C.2 key compression: Q18
// (whose first aggregation streams the full l_orderkey column) over
// dense versus RLE-encoded keys, reporting the simulated Pi runtime —
// the bandwidth-for-CPU trade the paper suggests for bandwidth-starved
// nodes.
func BenchmarkAblationRLECompression(b *testing.B) {
	data, _ := fixture(b)
	model := hardware.DefaultModel()
	pi := hardware.Pi()
	run := func(b *testing.B, d *tpch.Dataset) {
		db := engine.NewDB(engine.Config{Workers: 0})
		d.RegisterAll(db)
		var sim float64
		for i := 0; i < b.N; i++ {
			res, err := db.RunQuery(context.Background(), tpch.MustQuery(18), engine.QueryOpts{})
			if err != nil {
				b.Fatal(err)
			}
			sim = model.QueryTime(&pi, res.Counters, 4).Seconds()
		}
		b.ReportMetric(sim*1000, "simPi-ms")
	}
	b.Run("dense-keys", func(b *testing.B) { run(b, data) })
	b.Run("rle-keys", func(b *testing.B) { run(b, tpch.CompressKeys(data)) })
}

// BenchmarkAblationHybridCluster ablates the §III-C.1 hybrid/NAM
// architecture: the memory-hungry Q13 on a plain WimPi cluster (one
// thrashing Pi) versus a hybrid cluster whose server front end runs it.
func BenchmarkAblationHybridCluster(b *testing.B) {
	data, _ := fixture(b)
	lc, err := cluster.StartLocal(2, cluster.WorkerConfig{Source: cluster.SharedSource(data)}, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	if _, err := lc.Coordinator.Load(benchSF(), 42); err != nil {
		b.Fatal(err)
	}
	hy, err := cluster.NewHybrid(lc.Coordinator, data, 2)
	if err != nil {
		b.Fatal(err)
	}
	opt := cluster.DefaultSimOptions()
	opt.NodeProfile.RAMBytes = 4 << 20 // force Q13 memory pressure on a Pi
	server, _ := hardware.ByName("op-e5")
	b.Run("wimpi-only", func(b *testing.B) {
		var sim cluster.SimBreakdown
		for i := 0; i < b.N; i++ {
			res, err := lc.Coordinator.Run(13)
			if err != nil {
				b.Fatal(err)
			}
			sim = cluster.Simulate(res, opt)
		}
		b.ReportMetric(sim.Total*1000, "sim-ms")
	})
	b.Run("hybrid-front-end", func(b *testing.B) {
		var sim cluster.SimBreakdown
		for i := 0; i < b.N; i++ {
			res, err := hy.Run(13)
			if err != nil {
				b.Fatal(err)
			}
			sim = cluster.SimulateHybrid(res, opt, server)
		}
		b.ReportMetric(sim.Total*1000, "sim-ms")
	})
}

// BenchmarkFusedVsVector measures fused pipeline compilation against
// operator-at-a-time execution on scan-heavy queries (Q1, Q6 — one
// pipeline, no joins) and a join-bearing query (Q14). Each mode reports
// host wall clock and the simulated Pi 3B+ time of its recorded work
// profile; the fused path's win is the materialization traffic it never
// generates, which on the bandwidth-starved Pi is worth more than on
// the host. Results land in BENCH_fused.json; auto should track the
// faster engine per query within noise.
func BenchmarkFusedVsVector(b *testing.B) {
	const workers = 4
	data, _ := fixture(b)
	model := hardware.DefaultModel()
	pi := hardware.Pi()
	modes := []plan.ExecMode{plan.ExecVector, plan.ExecFused, plan.ExecAuto}
	dbs := map[plan.ExecMode]*engine.DB{}
	for _, m := range modes {
		db := engine.NewDB(engine.Config{Workers: workers, Exec: m})
		data.RegisterAll(db)
		dbs[m] = db
	}
	type fusedBenchResult struct {
		Query          int     `json:"query"`
		VectorNsPerOp  float64 `json:"vector_ns_per_op"`
		FusedNsPerOp   float64 `json:"fused_ns_per_op"`
		AutoNsPerOp    float64 `json:"auto_ns_per_op"`
		VectorSimPiMs  float64 `json:"vector_sim_pi_ms"`
		FusedSimPiMs   float64 `json:"fused_sim_pi_ms"`
		AutoSimPiMs    float64 `json:"auto_sim_pi_ms"`
		HostSpeedup    float64 `json:"host_speedup"`
		SimPiSpeedup   float64 `json:"sim_pi_speedup"`
		AutoVsBestPiMs float64 `json:"auto_vs_best_pi_ms"`
	}
	var results []fusedBenchResult
	for _, q := range []int{1, 6, 14} {
		node, err := tpch.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		res := fusedBenchResult{Query: q}
		for _, m := range modes {
			m := m
			b.Run(fmt.Sprintf("Q%d/%s", q, m), func(b *testing.B) {
				var ctr exec.Counters
				for i := 0; i < b.N; i++ {
					r, err := dbs[m].RunQuery(context.Background(), node, engine.QueryOpts{})
					if err != nil {
						b.Fatal(err)
					}
					ctr = r.Counters
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				sim := model.QueryTime(&pi, ctr, workers).Seconds() * 1000
				b.ReportMetric(sim, "simPi-ms")
				switch m {
				case plan.ExecVector:
					res.VectorNsPerOp, res.VectorSimPiMs = ns, sim
				case plan.ExecFused:
					res.FusedNsPerOp, res.FusedSimPiMs = ns, sim
				case plan.ExecAuto:
					res.AutoNsPerOp, res.AutoSimPiMs = ns, sim
				}
			})
		}
		if res.FusedNsPerOp > 0 {
			res.HostSpeedup = res.VectorNsPerOp / res.FusedNsPerOp
		}
		if res.FusedSimPiMs > 0 {
			res.SimPiSpeedup = res.VectorSimPiMs / res.FusedSimPiMs
		}
		best := res.VectorSimPiMs
		if res.FusedSimPiMs < best {
			best = res.FusedSimPiMs
		}
		res.AutoVsBestPiMs = res.AutoSimPiMs - best
		results = append(results, res)
	}
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fused.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
