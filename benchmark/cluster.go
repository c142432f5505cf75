package main

import (
	"time"
)

// clusterLoad is the WimPi cluster user: two single-worker nodes on
// loopback TCP, links throttled to the Pi's Ethernet, a single stream of
// the distributable statements. Its short queries are mostly RPC, framing
// and merge, so wire, sql.Distribute and coordinator changes show here and
// nowhere else; engine gains show only on Q1 and Q5.
type clusterLoad struct {
	base
	lc     *localCluster
	single *database // same data on one node, for the expected answers
	texts  map[int]string
	loadMs float64
	s      *stream
	acc    *clusterAcc
}

const clusterNodes = 2

func (w *clusterLoad) setup() (err error) {
	w.generate()
	if w.texts, err = statements(clusterQueries()); err != nil {
		return err
	}
	w.single = w.register(dbConfig{workers: w.cfg.workers})
	var load time.Duration
	w.lc, load, err = startCluster(w.ds, clusterNodes, w.texts)
	w.loadMs = ms(load)
	return err
}

func (w *clusterLoad) teardown() {
	if w.lc != nil {
		w.lc.close()
	}
	w.lc, w.single, w.ds = nil, nil, nil
}

// runDistributed is one RunSQL. Planning (of the merge half) happens
// inside it, so the operation has no separate planning part.
func (w *clusterLoad) runDistributed(q int) (opOut, error) {
	o := opOut{start: time.Now()}
	o.split = o.start
	res, err := w.lc.runSQL(q)
	o.end = time.Now()
	if err != nil {
		return o, err
	}
	r := flatten(res)
	o.table, o.dist = r.table, &r
	return o, nil
}

func (w *clusterLoad) measure() (*phase, error) {
	w.s = newStream(clusterQueries(), w.cfg.seed, w.tally)
	// Partitions sum separately, so a distributed float differs from the
	// single-node one in its last bits: the first distributed answer is
	// checked against single-node within the oracle's tolerance, and
	// every later one must be identical to the first.
	if err := w.s.learn(w.runDistributed); err != nil {
		return nil, err
	}
	single := sqlRunner(w.single, w.texts, 0, false)
	for _, q := range w.s.queries {
		if err := sameWithinTolerance(w.s.want[q], single, q); err != nil {
			w.tally.fail("Q%d distributed vs single-node: %v", q, err)
		} else {
			w.tally.ok()
		}
	}
	w.s.run(budget{min: 5, max: 5}, w.runDistributed, nil)
	// The coordinator returns its span tree with every result, so the
	// traced run folds the measured passes' own trees.
	var each func(pass, q int, o opOut)
	if w.cfg.trace {
		w.acc = &clusterAcc{rec: w.rec, byQuery: map[int]*clusterSamples{}}
		each = w.acc.each
	}
	return w.s.run(w.cfg.measured, w.runDistributed, each), nil
}

// clusterSamples is one query's distributed runs taken apart.
type clusterSamples struct {
	nodeMs, mergeMs, exchangeSelfMs []float64
	first                           clusterRun // pass 0: exact counts and simulated times
}

type clusterAcc struct {
	rec          *recorder
	byQuery      map[int]*clusterSamples
	redispatches int
}

func (a *clusterAcc) each(pass, q int, o opOut) {
	r := o.dist
	s := a.byQuery[q]
	if s == nil {
		s = &clusterSamples{first: *r}
		a.byQuery[q] = s
	}
	// What the coordinator adds: the run minus the slowest node's round
	// trip (nodes overlap) minus the merge.
	self := r.exchange - r.slowestNode - r.merge
	s.nodeMs = append(s.nodeMs, ms(r.slowestNode))
	s.mergeMs = append(s.mergeMs, ms(r.merge))
	s.exchangeSelfMs = append(s.exchangeSelfMs, ms(self))
	a.redispatches += r.redispatches
	op := a.rec.newOp()
	a.rec.add(op, 0, "cluster.run_sql "+className(q), o.start, o.end, map[string]float64{
		"node": ms(r.slowestNode), "merge": ms(r.merge), "exchange": ms(self),
	})
}

func (w *clusterLoad) layers(untraced *phase, m metrics) error {
	// The same statements on one node, checked against their own first
	// answer (distributed sums differ from these in their last bits).
	ref := newStream(w.s.queries, w.cfg.seed, w.tally)
	onOneNode := sqlRunner(w.single, w.texts, 0, false)
	if err := ref.learn(onOneNode); err != nil {
		return err
	}
	single := ref.run(w.cfg.extra, onOneNode, nil)

	simMs := map[int]float64{}
	for _, q := range sortedKeys(w.acc.byQuery) {
		s := w.acc.byQuery[q]
		m["cluster.node_ms"] += median(s.nodeMs)
		m["cluster.merge_ms"] += median(s.mergeMs)
		m["cluster.exchange_self_ms"] += median(s.exchangeSelfMs)
		m["cluster.wire_kb_per_pass"] += float64(s.first.wireBytes) / 1024
		m["cluster.sim_node_ms"] += s.first.simNode * 1e3
		m["cluster.sim_network_ms"] += s.first.simNetwork * 1e3
		m["cluster.sim_merge_ms"] += s.first.simMerge * 1e3
		m["hardware.sim_pi_ms"] += s.first.simTotal * 1e3
		simMs[q] = s.first.simTotal * 1e3
	}
	m["cluster.load_ms"] = w.loadMs
	m["cluster.redispatches"] = float64(w.acc.redispatches)
	if s := single.streamMs(); s > 0 {
		m["cluster.overhead_ratio"] = untraced.streamMs() / s
	}
	engineMetrics(m, untraced)
	modelFit(m, untraced, simMs)

	var err error
	if m["sql.distribute_us"], err = timeStatements(inOrder(w.texts), frontendRepeats, distributeSQL); err != nil {
		return err
	}
	w.setupMetrics(m, w.single)
	return frontendMetrics(m, w.single, w.texts)
}

// sameWithinTolerance compares got with reference's answer to q.
func sameWithinTolerance(got *table, reference runner, q int) error {
	o, err := reference(q)
	if err != nil {
		return err
	}
	gotRows, err := tableRows(got)
	if err != nil {
		return err
	}
	wantRows, err := tableRows(o.table)
	if err != nil {
		return err
	}
	return compareRows(gotRows, wantRows)
}
