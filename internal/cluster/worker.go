package cluster

import (
	"context"
	"fmt"
	"net"
	"runtime/pprof"
	"sync"

	"wimpi/internal/cluster/faultconn"
	"wimpi/internal/engine"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	sqlpkg "wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// WorkerConfig controls one cluster node.
type WorkerConfig struct {
	// LinkBandwidthBps throttles the worker's outbound link (bits per
	// second); zero disables throttling. Real WimPi nodes manage about
	// 220 Mbit/s (PiLinkBandwidthBps).
	LinkBandwidthBps float64
	// Source optionally supplies the worker's partition instead of
	// generating it (in-process clusters share one full dataset this
	// way). Nil means generate with tpch.GeneratePartition.
	Source func(*LoadRequest) (*tpch.Dataset, error)
	// Faults optionally injects deterministic faults into every
	// accepted connection (chaos testing). The injector layers under
	// the link throttle and is shared across reconnects.
	Faults *faultconn.Injector
}

// SharedSource adapts a pre-generated full dataset into a WorkerConfig
// Source: each worker receives a zero-copy view of the replicated tables
// plus its materialized lineitem partition.
func SharedSource(full *tpch.Dataset) func(*LoadRequest) (*tpch.Dataset, error) {
	return func(l *LoadRequest) (*tpch.Dataset, error) {
		if l.SF != full.Config.SF || l.Seed != full.Config.Seed {
			return nil, fmt.Errorf("cluster: shared dataset is SF %g seed %d, load wants SF %g seed %d",
				full.Config.SF, full.Config.Seed, l.SF, l.Seed)
		}
		return tpch.PartitionFromFull(full, l.Node, l.NumNodes)
	}
}

// Worker is one WimPi node: an in-memory engine over one dataset
// partition, served over TCP.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	db       *engine.DB
	node     int
	nodes    int
	loaded   bool
	dbBytes  int64
	lastLoad *LoadRequest
	// lastCfg is the engine configuration built from lastLoad, its exec
	// mode parsed once, when the load was accepted; spares reuse it.
	lastCfg engine.Config

	// spare holds engines over foreign partitions, built on demand when
	// the coordinator re-dispatches another node's partition query here
	// (straggler handling). Regeneration is deterministic, so a spare
	// partial is byte-identical to the original node's.
	spareMu sync.Mutex
	spare   map[int]*engine.DB
}

// NewWorker returns an empty worker.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg}
}

// Serve accepts coordinator connections on ln until the listener closes.
// Each connection is served on its own goroutine; requests on a
// connection are processed in order.
func (w *Worker) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go pprof.Do(context.Background(), pprof.Labels("wimpi", "cluster-conn"), func(context.Context) {
			w.serveConn(conn)
		})
	}
}

func (w *Worker) serveConn(conn net.Conn) {
	var c net.Conn = conn
	if w.cfg.Faults != nil {
		c = w.cfg.Faults.Wrap(c)
	}
	c = newThrottledConn(c, w.cfg.LinkBandwidthBps)
	defer c.Close()
	for {
		var req Request
		// A malformed frame (bad magic, oversized length, truncation,
		// checksum mismatch) poisons the stream; drop the connection
		// and let the coordinator reconnect with a clean session.
		if err := readMsg(c, &req); err != nil {
			return
		}
		w.cfg.Faults.SetPhase(req.Type)
		resp := w.handle(&req)
		if err := writeMsg(c, resp); err != nil {
			return
		}
		if req.Type == "shutdown" {
			return
		}
	}
}

func (w *Worker) handle(req *Request) *Response {
	switch req.Type {
	case "ping", "shutdown":
		return &Response{}
	case "iperf":
		n := req.IperfBytes
		if n <= 0 || n > 1<<30 {
			return &Response{Err: fmt.Sprintf("bad iperf size %d", n)}
		}
		return &Response{Payload: make([]byte, n)}
	case "load":
		return w.handleLoad(req.Load)
	case "query":
		return w.handleQuery(req.Query, req.ForNode)
	default:
		return &Response{Err: fmt.Sprintf("unknown request type %q", req.Type)}
	}
}

func (w *Worker) handleLoad(l *LoadRequest) *Response {
	if l == nil {
		return &Response{Err: "load request missing parameters"}
	}
	var d *tpch.Dataset
	var err error
	if w.cfg.Source != nil {
		d, err = w.cfg.Source(l)
	} else {
		d, err = tpch.GeneratePartition(tpch.Config{SF: l.SF, Seed: l.Seed}, l.Node, l.NumNodes)
	}
	if err != nil {
		return &Response{Err: err.Error()}
	}
	workers := l.Workers
	if workers < 1 {
		workers = 1
	}
	mode, err := plan.ParseExecMode(l.Exec)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	cfg := engine.Config{
		Workers: workers, Exec: mode, MemBudgetBytes: l.MemBudgetBytes,
	}
	db := engine.NewDB(cfg)
	d.RegisterAll(db)

	lcopy := *l
	w.mu.Lock()
	w.db = db
	w.node = l.Node
	w.nodes = l.NumNodes
	w.loaded = true
	w.dbBytes = db.SizeBytes()
	w.lastLoad = &lcopy
	w.lastCfg = cfg
	w.mu.Unlock()

	// A reload invalidates any cached foreign partitions.
	w.spareMu.Lock()
	w.spare = nil
	w.spareMu.Unlock()
	return &Response{DBBytes: db.SizeBytes()}
}

// spareDB returns an engine over partition `node`, regenerating it (or
// fetching it from Source) with the last load's parameters, into an
// engine configured exactly like the partition's home node. Spares are
// cached: a re-dispatch storm rebuilds each partition at most once.
func (w *Worker) spareDB(node int) (*engine.DB, error) {
	w.mu.Lock()
	last, cfg := w.lastLoad, w.lastCfg
	w.mu.Unlock()
	if last == nil {
		return nil, fmt.Errorf("no data loaded")
	}
	if node < 0 || node >= last.NumNodes {
		return nil, fmt.Errorf("partition %d out of range (cluster of %d)", node, last.NumNodes)
	}

	w.spareMu.Lock()
	defer w.spareMu.Unlock()
	if db, ok := w.spare[node]; ok {
		return db, nil
	}
	l := *last
	l.Node = node
	var d *tpch.Dataset
	var err error
	if w.cfg.Source != nil {
		d, err = w.cfg.Source(&l)
	} else {
		d, err = tpch.GeneratePartition(tpch.Config{SF: l.SF, Seed: l.Seed}, l.Node, l.NumNodes)
	}
	if err != nil {
		return nil, fmt.Errorf("regenerate partition %d: %v", node, err)
	}
	db := engine.NewDB(cfg)
	d.RegisterAll(db)
	if w.spare == nil {
		w.spare = map[int]*engine.DB{}
	}
	w.spare[node] = db
	return db, nil
}

func (w *Worker) handleQuery(q, forNode int) *Response {
	w.mu.Lock()
	db := w.db
	loaded := w.loaded
	node := w.node
	dbBytes := w.dbBytes
	last := w.lastLoad
	w.mu.Unlock()
	if !loaded {
		return &Response{Err: "no data loaded"}
	}
	if forNode >= 0 && forNode != node {
		sdb, err := w.spareDB(forNode)
		if err != nil {
			return &Response{Err: err.Error()}
		}
		db = sdb
	}
	text, ok := last.SQL[q]
	if !ok {
		return &Response{Err: fmt.Sprintf("no SQL shipped for query %d in the last load", q)}
	}
	// Planned here, against this node's catalog. The optimizer is
	// catalog-dependent and worker-independent, and every node holds the
	// same replicated dimension tables plus an equal-share lineitem
	// partition, so a foreign partition re-dispatched here plans — and
	// answers — exactly like its home node.
	pl, err := sqlpkg.Plan(db, text, sqlpkg.Options{UniqueKeys: tpch.TableKeys()})
	if err != nil {
		return &Response{Err: fmt.Sprintf("query %d: plan: %v", q, err)}
	}
	res, err := db.RunQuery(context.Background(), pl.Node, engine.QueryOpts{})
	if err != nil {
		return &Response{Err: fmt.Sprintf("query %d: %v", q, err)}
	}
	return &Response{
		Table:    ToWire(res.Table),
		Counters: res.Counters,
		DBBytes:  dbBytes,
		Plan:     obs.RenderPlanChoices(pl.Report.Choices),
	}
}
