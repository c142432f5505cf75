package main

import (
	"fmt"
	"os"
	"time"
)

// runConfig is one run's shape, derived from the flags.
type runConfig struct {
	workload string
	seed     uint64
	sf       float64
	workers  int
	trace    bool
	quick    bool
	outDir   string
	// measured bounds the untraced phase end-to-end numbers come from;
	// extra bounds each further phase of a traced run.
	measured, extra budget
	// requests bounds serve's phases the same way, per client.
	measuredReqs, extraReqs budget
}

// fullSF is the dataset every comparable run uses: 73 MB resident, far
// beyond the 4 MiB per-core L2, far below RAM, rows far above clients.
// quickSF is the smoke test's.
const (
	fullSF  = 0.1
	quickSF = 0.02
)

// newRunConfig sizes the phases. A traced run splits the same seconds
// over its (at most four) phases.
func newRunConfig(workload string, seed uint64, seconds float64, trace, quick bool) runConfig {
	c := runConfig{
		workload: workload, seed: seed, sf: fullSF, workers: engineWorkers(),
		trace: trace, quick: quick, outDir: "benchmark/out",
	}
	d := time.Duration(seconds * float64(time.Second))
	// Never fewer than 15 samples per query end to end; the traced
	// phases feed ratios and attributions and get by on 5.
	c.measured = budget{d: d, min: 15}
	c.measuredReqs = budget{d: d, min: 300}
	c.extra = budget{d: d / 4, min: 5}
	c.extraReqs = budget{d: d / 2, min: 150}
	if trace {
		c.measured = c.extra
		c.measuredReqs = c.extraReqs
	}
	if quick {
		c.sf = quickSF
		c.measured, c.extra = budget{min: 3, max: 3}, budget{min: 3, max: 3}
		c.measuredReqs, c.extraReqs = budget{min: 150, max: 150}, budget{min: 150, max: 150}
	}
	return c
}

// workload is one of power, spill, serve, cluster.
type workload interface {
	// setup generates the dataset and starts whatever the workload
	// serves queries from; teardown releases all of it.
	setup() error
	teardown()
	// measure learns the expected answers, warms up, and runs the
	// untraced measured phase.
	measure() (*phase, error)
	// layers makes the traced run and fills in the per-layer metrics.
	layers(untraced *phase, m metrics) error
	// describe lists sample counts for the report.
	describe(p *phase) string
}

func newWorkload(c runConfig, t *tally, rec *recorder) (workload, error) {
	b := base{cfg: c, tally: t, rec: rec}
	switch c.workload {
	case "power":
		return &power{base: b}, nil
	case "spill":
		return &spillLoad{base: b}, nil
	case "serve":
		return &serveLoad{base: b}, nil
	case "cluster":
		return &clusterLoad{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want power, spill, serve, cluster or all)", c.workload)
}

var workloadNames = []string{"power", "spill", "serve", "cluster"}

// base is what every workload shares.
type base struct {
	cfg          runConfig
	tally        *tally
	rec          *recorder // nil when untraced
	ds           *dataset
	genMs, regMs float64
}

func (b *base) generate() {
	t := time.Now()
	b.ds = generate(b.cfg.sf, b.cfg.seed)
	b.genMs = ms(time.Since(t))
}

func (b *base) register(c dbConfig) *database {
	t := time.Now()
	db := newDB(b.ds, c)
	b.regMs = ms(time.Since(t))
	return db
}

func (b *base) describe(p *phase) string {
	lo, hi := p.sampleRange()
	return fmt.Sprintf("%d passes, %d operations, %d..%d samples per class over %d classes",
		p.passes, p.ops, lo, hi, len(p.lat))
}

// statements returns the validation-parameter text of each query.
func statements(queries []int) (map[int]string, error) {
	texts := make(map[int]string, len(queries))
	for _, q := range queries {
		text, err := sqlText(q)
		if err != nil {
			return nil, err
		}
		texts[q] = text
	}
	return texts, nil
}

// power is the analyst on one wimpy node: a single stream of all 22
// queries on the default engine configuration, no memory budget.
type power struct {
	base
	db    *database
	texts map[int]string
	s     *stream
}

var allQueries = func() []int {
	qs := make([]int, 22)
	for i := range qs {
		qs[i] = i + 1
	}
	return qs
}()

func (w *power) setup() (err error) {
	w.generate()
	w.db = w.register(dbConfig{workers: w.cfg.workers})
	w.texts, err = statements(allQueries)
	return err
}

func (w *power) teardown() { w.db, w.ds = nil, nil }

func (w *power) measure() (*phase, error) {
	w.s = newStream(allQueries, w.cfg.seed, w.tally)
	r := sqlRunner(w.db, w.texts, 0, false)
	// The expected answer of a query is its first warm-up result.
	if err := w.s.learn(r); err != nil {
		return nil, err
	}
	w.s.run(budget{min: 2, max: 2}, r, nil)
	return w.s.run(w.cfg.measured, r, nil), nil
}

func (w *power) layers(untraced *phase, m metrics) error {
	acc := newTraceAcc(w.rec)
	traced := w.s.run(w.cfg.extra, sqlRunner(w.db, w.texts, 0, true), acc.each)
	// The same statements on fused pipelines and on one worker: the data
	// for keeping or deleting the per-pipeline pricer, and for scaling.
	fusedAcc := newTraceAcc(nil)
	fusedDB := newDB(w.ds, dbConfig{workers: w.cfg.workers, fused: true})
	fused := w.s.run(w.cfg.extra, sqlRunner(fusedDB, w.texts, 0, true), fusedAcc.each)
	one := w.s.run(w.cfg.extra, sqlRunner(w.db, w.texts, 1, false), nil)

	if err := w.singleNodeLayers(m, acc, untraced, traced, w.db, w.texts); err != nil {
		return err
	}
	// The default passes run no fused pipelines; this row is the fused passes'.
	if fused.passes > 0 {
		m["plan.fused_ms"] = fusedAcc.fold.selfMs["fused"] / float64(fused.passes)
	}
	m["engine.fused_over_vector"] = ratioGeomean(fused, traced)
	m["engine.workers1_over_workersN"] = ratioGeomean(one, untraced)
	return nil
}

// spillLoad is the same join layer used differently: the join-bearing
// queries under a memory budget of 1/18 of the resident data — the Pi's
// 1 GB against SF 10 — so partitions are written and read back beside
// in-memory probes. Q21 is left out so it does not drown them.
type spillLoad struct {
	base
	db, free *database // budgeted, and unbudgeted for the expected answers
	dir      string
	texts    map[int]string
	s        *stream
	leaked   int
}

var spillQueries = []int{3, 4, 5, 7, 8, 9, 10, 12, 17}

const spillBudgetShare = 18

func (w *spillLoad) setup() (err error) {
	w.generate()
	w.free = newDB(w.ds, dbConfig{workers: w.cfg.workers})
	if err := os.MkdirAll(w.cfg.outDir, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.cfg.outDir, "spill-"); err != nil {
		return err
	}
	w.db = w.register(dbConfig{
		workers:   w.cfg.workers,
		memBudget: residentBytes(w.free) / spillBudgetShare,
		spillDir:  w.dir,
	})
	w.texts, err = statements(spillQueries)
	return err
}

func (w *spillLoad) teardown() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
	w.db, w.free, w.ds, w.dir = nil, nil, nil, ""
}

// checkLeaks fails the run when a pass left files in the spill area.
func (w *spillLoad) checkLeaks() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.tally.fail("spill dir: %v", err)
		return
	}
	if len(entries) > 0 {
		w.leaked += len(entries)
		w.tally.fail("spill: %d files left behind after a pass", len(entries))
	}
}

func (w *spillLoad) measure() (*phase, error) {
	w.s = newStream(spillQueries, w.cfg.seed, w.tally)
	w.s.afterPass = w.checkLeaks
	// A budgeted result must be identical to the unbudgeted one.
	if err := w.s.learn(sqlRunner(w.free, w.texts, 0, false)); err != nil {
		return nil, err
	}
	r := sqlRunner(w.db, w.texts, 0, false)
	w.s.run(budget{min: 3, max: 3}, r, nil)
	return w.s.run(w.cfg.measured, r, nil), nil
}

func (w *spillLoad) layers(untraced *phase, m metrics) error {
	acc := newTraceAcc(w.rec)
	traced := w.s.run(w.cfg.extra, sqlRunner(w.db, w.texts, 0, true), acc.each)
	unbudgeted := w.s.run(w.cfg.extra, sqlRunner(w.free, w.texts, 0, false), nil)

	if err := w.singleNodeLayers(m, acc, untraced, traced, w.db, w.texts); err != nil {
		return err
	}
	m["spill.queries_spilled"] = float64(acc.spilledQueries)
	m["spill.leaked_files"] = float64(w.leaked)
	if s := m["spill.partition_ms"]; s > 0 {
		m["spill.write_mb_s"] = m["spill.write_mb_per_pass"] / (s / 1e3)
	}
	if f := unbudgeted.streamMs(); f > 0 {
		m["spill.slowdown"] = untraced.streamMs() / f
	}
	return nil
}
