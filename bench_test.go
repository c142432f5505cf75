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
	"fmt"
	"io"
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
				p := tpch.MustQuery(db, q)
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
// per query) and reports the simulated Pi 3B+ and op-e5 runtimes. Two
// more blocks run them the way spans.golden's do, so that `make
// alloc-gate` also counts the allocations of code only they reach:
// spill/Q<n> under a 64 KiB memory budget, for each query
// plan.Spillable accepts (the budget cancels the rest), and fused/Q<n>
// in the fused engine. -bench '^BenchmarkTableII$/^Q' runs the default
// block alone (an unanchored 'BenchmarkTableII/Q' also runs
// BenchmarkTableIII).
func BenchmarkTableII(b *testing.B) {
	data, db := fixture(b)
	spill := engine.NewDB(engine.Config{MemBudgetBytes: 64 << 10, SpillDir: b.TempDir()})
	fused := engine.NewDB(engine.Config{Exec: plan.ExecFused})
	data.RegisterAll(spill)
	data.RegisterAll(fused)
	benchQueries(b, db, nil)
	b.Run("spill", func(b *testing.B) { benchQueries(b, spill, plan.Spillable) })
	b.Run("fused", func(b *testing.B) { benchQueries(b, fused, nil) })
}

// benchQueries runs one sub-benchmark per TPC-H query on db, skipping
// the queries whose plan keep (when non-nil) rejects. An untimed pass
// over the queries comes first: the query runners' scratch
// (exec.Scratch) is recycled from query to query and grows on whichever
// runner first claims a morsel that needs more, so in a fresh process
// that growth would land in a random query's measured runs.
func benchQueries(b *testing.B, db *engine.DB, keep func(plan.Node) bool) {
	model := hardware.DefaultModel()
	pi := hardware.Pi()
	e5, _ := hardware.ByName("op-e5")
	var qs []int
	for _, q := range tpch.QueryNumbers() {
		if keep == nil || keep(tpch.MustQuery(db, q)) {
			qs = append(qs, q)
		}
	}
	for _, q := range qs {
		if _, err := db.RunQuery(context.Background(), tpch.MustQuery(db, q), engine.QueryOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range qs {
		b.Run(fmt.Sprintf("Q%d", q), func(b *testing.B) {
			p := tpch.MustQuery(db, q)
			b.ResetTimer()
			var ctr exec.Counters
			for i := 0; i < b.N; i++ {
				res, err := db.RunQuery(context.Background(), p, engine.QueryOpts{})
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
	stmts, err := tpch.Statements(tpch.RepresentativeQueries)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lc.Coordinator.LoadSQL(benchSF(), 42, stmts); err != nil {
		b.Fatal(err)
	}
	opt := cluster.DefaultSimOptions()
	for _, q := range tpch.RepresentativeQueries {
		q := q
		b.Run(fmt.Sprintf("Q%d", q), func(b *testing.B) {
			var sim cluster.SimBreakdown
			for i := 0; i < b.N; i++ {
				res, err := lc.Coordinator.RunSQL(q)
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
		like := exec.CompileLike("%special%requests%")
		for i := 0; i < b.N; i++ {
			n = 0
			for _, s := range raw {
				if like.Match(s) {
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
	q6 := tpch.MustQuery(db, 6)
	b.Run("materialized-plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.RunQuery(context.Background(), q6, engine.QueryOpts{}); err != nil {
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
	q1, err := tpch.SQL(1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lc.Coordinator.LoadSQL(benchSF(), 42, map[int]string{1: q1}); err != nil {
		b.Fatal(err)
	}
	b.Run("partial-aggregates", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			res, err := lc.Coordinator.RunSQL(1)
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
	res, err := db.RunQuery(context.Background(), tpch.MustQuery(db, 1), engine.QueryOpts{})
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
	q13, err := tpch.SQL(13)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lc.Coordinator.LoadSQL(benchSF(), 42, map[int]string{13: q13}); err != nil {
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
			res, err := lc.Coordinator.RunSQL(13)
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
