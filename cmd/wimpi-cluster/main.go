// Command wimpi-cluster runs the WimPi distributed engine as real OS
// processes: workers serve partitions over TCP, and a coordinator loads
// them and drives distributed queries — the multi-process equivalent of
// the paper's 24-board cluster.
//
// Worker:
//
//	wimpi-cluster -mode worker -listen 127.0.0.1:9101 [-throttle 220e6] \
//	    [-fault 'node=0 op=write phase=query kind=reset times=1' -fault-node 0]
//
// Coordinator:
//
//	wimpi-cluster -mode coord -addrs 127.0.0.1:9101,127.0.0.1:9102 \
//	    -sf 0.1 -q 1,3,4,5,6,13,14,19 [-simulate] \
//	    [-retries 3 -rpc-timeout 60s -redispatch -allow-partial]
//
// Every query runs as SQL: the TPC-H texts -q names, or an ad-hoc
// statement. Each is split into per-node partial + merge halves, the
// partial text ships with the load, and every node plans it locally:
//
//	wimpi-cluster -mode coord -addrs ... -sf 0.1 \
//	    -sql "select count(*) as n from lineitem"
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"wimpi/internal/cluster"
	"wimpi/internal/cluster/faultconn"
	"wimpi/internal/engine"
	"wimpi/internal/hardware"
	"wimpi/internal/obs"
	"wimpi/internal/spill"
	"wimpi/internal/tpch"
)

func main() {
	mode := flag.String("mode", "", "worker or coord")
	listen := flag.String("listen", "127.0.0.1:0", "worker listen address")
	throttle := flag.Float64("throttle", cluster.PiLinkBandwidthBps, "worker outbound link bits/s (0 = unthrottled)")
	fault := flag.String("fault", "", "worker: fault-injection plan (see faultconn.ParsePlan)")
	faultSeed := flag.Int64("fault-seed", 1, "worker: seed for fault corruption masks")
	faultNode := flag.Int("fault-node", -1, "worker: node index for node= rule filtering (-1 = match all)")
	addrs := flag.String("addrs", "", "coordinator: comma-separated worker addresses")
	sf := flag.Float64("sf", 0.1, "coordinator: TPC-H scale factor")
	seed := flag.Uint64("seed", 42, "coordinator: dataset seed")
	queries := flag.String("q", "1,3,4,5,6,13,14,19", "coordinator: distributed queries to run")
	sqlText := flag.String("sql", "", "coordinator: run this SQL statement distributed instead of numbered queries")
	sqlFile := flag.String("sql-file", "", "coordinator: read the SQL statement from this file")
	simulate := flag.Bool("simulate", false, "coordinator: print simulated WimPi wall-clock per query")
	rows := flag.Int("rows", 5, "coordinator: result rows to print")
	rpcTimeout := flag.Duration("rpc-timeout", 60*time.Second, "coordinator: per-RPC deadline")
	retries := flag.Int("retries", 3, "coordinator: attempts per RPC (1 disables retries)")
	allowPartial := flag.Bool("allow-partial", false, "coordinator: return partial results over surviving partitions")
	redispatch := flag.Bool("redispatch", false, "coordinator: re-issue failed/straggling partitions to healthy peers")
	stragglerMult := flag.Float64("straggler-mult", 4, "coordinator: straggler threshold as multiple of median response time")
	explain := flag.Bool("explain", false, "coordinator: print each query's exchange span tree (per-node partials + merge)")
	execMode := flag.String("exec", "vector", "coordinator: per-node execution mode (vector or fused), shipped with every load")
	memBudget := flag.String("mem-budget", "", "coordinator: per-query memory budget on every node (e.g. 256MB), shipped with the load; joins beyond it spill to each worker's local disk (empty = unbounded)")
	metricsOut := flag.String("metrics-out", "", "coordinator: write Prometheus-text metrics to this file before exiting")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics over HTTP at this address (GET /metrics)")
	flag.Parse()

	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr)
	}

	switch *mode {
	case "worker":
		runWorker(*listen, *throttle, *fault, *faultSeed, *faultNode)
	case "coord":
		var memBudgetBytes int64
		if *memBudget != "" {
			var err error
			if memBudgetBytes, err = spill.ParseByteSize(*memBudget); err != nil {
				fatalf("%v", err)
			}
		}
		cfg := cluster.Config{
			WorkersPerNode:    4,
			RPCTimeout:        *rpcTimeout,
			Retry:             cluster.RetryPolicy{MaxAttempts: *retries},
			AllowPartial:      *allowPartial,
			Redispatch:        *redispatch,
			StragglerMultiple: *stragglerMult,
			Exec:              *execMode,
			MemBudgetBytes:    memBudgetBytes,
		}
		if *sqlText != "" && *sqlFile != "" {
			fatalf("-sql and -sql-file are mutually exclusive")
		}
		statement := *sqlText
		if *sqlFile != "" {
			b, err := os.ReadFile(*sqlFile)
			if err != nil {
				fatalf("%v", err)
			}
			statement = string(b)
		}
		// The statements to ship and run, in run order: the -sql text as
		// statement 0, or the TPC-H texts -q names under their numbers.
		ids, stmts := []int{0}, map[int]string{0: statement}
		if statement == "" {
			ids, stmts = nil, map[int]string{}
			for _, qs := range strings.Split(*queries, ",") {
				q, err := strconv.Atoi(strings.TrimSpace(qs))
				if err != nil {
					fatalf("bad query %q", qs)
				}
				if stmts[q], err = tpch.SQL(q); err != nil {
					fatalf("%v", err)
				}
				ids = append(ids, q)
			}
		}
		runCoordinator(cfg, *addrs, *sf, *seed, ids, stmts, *simulate, *rows, *explain)
		if *metricsOut != "" {
			if err := writeMetrics(*metricsOut); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
		}
	default:
		fatalf("-mode must be worker or coord")
	}
}

// serveMetrics exposes the default registry at /metrics, Prometheus
// text format.
func serveMetrics(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.Default.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "wimpi-cluster: metrics endpoint: %v\n", err)
	}
}

func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.Default.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runWorker(listen string, throttle float64, fault string, faultSeed int64, faultNode int) {
	var inj *faultconn.Injector
	if fault != "" {
		plan, err := faultconn.ParsePlan(fault, faultSeed)
		if err != nil {
			fatalf("%v", err)
		}
		inj = plan.Injector(faultNode)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fatalf("listen: %v", err)
	}
	fmt.Printf("wimpi worker listening on %s (link %.0f Mbit/s)\n",
		ln.Addr(), throttle/1e6)
	w := cluster.NewWorker(cluster.WorkerConfig{LinkBandwidthBps: throttle, Faults: inj})
	if err := w.Serve(ln); err != nil {
		fatalf("serve: %v", err)
	}
}

// runCoordinator ships stmts with the load — each splits into a per-node
// partial half every node plans locally and a merge half run here — and
// runs them in the order ids gives.
func runCoordinator(cfg cluster.Config, addrList string, sf float64, seed uint64, ids []int, stmts map[int]string, simulate bool, rows int, explain bool) {
	if addrList == "" {
		fatalf("coordinator needs -addrs")
	}
	cfg.Addrs = strings.Split(addrList, ",")
	coord, err := cluster.Dial(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer coord.Close()

	fmt.Fprintf(os.Stderr, "loading SF %g across %d nodes ... ", sf, coord.NumNodes())
	stats, err := coord.LoadSQL(sf, seed, stmts)
	if err != nil {
		fatalf("load: %v", err)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", stats.Duration.Round(time.Millisecond))

	for _, id := range ids {
		label := fmt.Sprintf("Q%d", id)
		if id == 0 {
			label = "sql"
		}
		res, err := coord.RunSQL(id)
		if err != nil {
			var perr *cluster.PartialClusterError
			if errors.As(err, &perr) && perr.Result != nil {
				fmt.Fprintf(os.Stderr, "%s degraded: %v\n", label, perr)
				res = perr.Result
			} else {
				fatalf("%s: %v", label, err)
			}
		}
		coverage := ""
		if res.Partial {
			coverage = fmt.Sprintf(" PARTIAL (failed nodes %v)", res.FailedNodes)
		}
		fmt.Printf("-- %s: %d rows, %d nodes, %.1f KB transferred, %v (host)%s --\n",
			label, res.Table.NumRows(), res.NodesUsed,
			float64(res.BytesReceived)/1024, res.HostDuration.Round(time.Microsecond), coverage)
		// Per-node plan choices are worker-independent; show node 0's.
		if len(res.NodePlans) > 0 {
			fmt.Print(res.NodePlans[0])
		}
		if rows > 0 {
			fmt.Print(engine.FormatTable(res.Table, rows))
		}
		if explain && res.Root != nil {
			opt := cluster.DefaultSimOptions()
			fmt.Print(obs.ExplainAnalyze(res.Root, obs.ExplainOptions{
				Sim: hardware.Sim{Model: opt.Model, Profile: &opt.NodeProfile},
			}))
		}
		if simulate {
			b := cluster.Simulate(res, cluster.DefaultSimOptions())
			fmt.Printf("simulated WimPi wall-clock: %.3fs (node %.3fs, network %.3fs, merge %.3fs, thrash %v)\n",
				b.Total, b.NodeSeconds, b.NetworkSeconds, b.MergeSeconds, b.Thrashed)
		}
		fmt.Println()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wimpi-cluster: "+format+"\n", args...)
	os.Exit(1)
}
