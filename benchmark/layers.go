package main

import (
	"runtime"
	"sort"
	"time"
)

// traceAcc collects what the traced passes of a single-node workload
// returned: the program's operator spans folded into rows, and the exact
// work profile of the first pass.
type traceAcc struct {
	rec   *recorder
	fold  *folded
	work  counters          // Result.Counters summed over pass 0
	sim   map[int]breakdown // simulated Pi time by query, from pass 0
	runMs float64           // wall inside traced runs, all passes
	// spilledQueries counts pass-0 runs that wrote to the spill area.
	spilledQueries int
}

func newTraceAcc(rec *recorder) *traceAcc {
	return &traceAcc{rec: rec, fold: newFolded(), sim: map[int]breakdown{}}
}

// each is the stream callback of a traced phase.
func (a *traceAcc) each(pass, q int, o opOut) {
	one := newFolded()
	one.fold(o.root)
	a.fold.merge(one)
	a.runMs += ms(o.end.Sub(o.split))
	if pass == 0 {
		addWork(&a.work, o.counters)
		a.sim[q] = simulatePi(o.counters)
		if spilled(o.counters) {
			a.spilledQueries++
		}
	}
	op := a.rec.newOp()
	root := a.rec.add(op, 0, "op "+className(q), o.start, o.end, nil)
	a.rec.add(op, root, "sql.plan", o.start, o.split, nil)
	a.rec.add(op, root, "engine.run_traced", o.split, o.end, one.selfMs)
}

// operatorMetrics reports the rows folded over `passes` traced passes,
// per pass, and their per-tuple costs.
func (a *traceAcc) operatorMetrics(m metrics, passes int) {
	n := float64(passes)
	row := func(r string) float64 { return a.fold.selfMs[r] / n }
	for _, r := range []string{"scan", "gather", "join_build", "join_probe", "join_partition",
		"group", "group_partition", "sort", "fused", "other"} {
		m["plan."+r+"_ms"] = row(r)
	}
	m["spill.partition_ms"] = row("spill_partition")
	m["spill.probe_ms"] = row("spill_probe")
	for _, u := range unitCosts {
		if units := u.units(a.fold.work[u.row]); units > 0 {
			m[u.metric] = a.fold.selfMs[u.row] * 1e6 / float64(units)
		}
	}
	m["obs.spans_per_pass"] = float64(a.fold.spans) / n
	if a.runMs > 0 {
		m["obs.self_time_coverage"] = a.fold.total() / a.runMs
	}
}

// workMetrics reports one pass's exact work counts and what the hardware
// model makes of them, term by term.
func (a *traceAcc) workMetrics(m metrics) {
	for name, v := range workCounts(a.work) {
		m[name] = v
	}
	// In query order, so the float sums repeat bit for bit.
	for _, q := range sortedKeys(a.sim) {
		for name, v := range simTerms(a.sim[q]) {
			m["hardware."+name] += v
		}
	}
}

// simMs is the simulated Pi time by query, in ms.
func (a *traceAcc) simMs() map[int]float64 {
	out := make(map[int]float64, len(a.sim))
	for q, b := range a.sim {
		out[q] = b.Total * 1e3
	}
	return out
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// modelFit compares the host's per-query medians with simulated times
// (ms by query): their ratio, and whether the model that drives every
// planner decision orders queries the way the wall clock does.
func modelFit(m metrics, host *phase, simMs map[int]float64) {
	var h, s, ratio []float64
	for _, q := range sortedKeys(simMs) {
		sim, med := simMs[q], median(host.lat[className(q)])
		if med > 0 && sim > 0 {
			h, s, ratio = append(h, med), append(s, sim), append(ratio, med/sim)
		}
	}
	m["hardware.host_over_sim_geomean"] = geomean(ratio)
	m["hardware.rank_corr"] = spearman(h, s)
}

// engineMetrics reports the untraced phase per query and per pass.
func engineMetrics(m metrics, p *phase) {
	med := p.medians()
	stream := sum(med)
	slowest := 0.0
	for i, c := range p.classes() {
		m["engine."+c+"_ms"] = med[i]
		if med[i] > slowest {
			slowest = med[i]
		}
	}
	if stream > 0 {
		m["engine.slowest_query_share"] = slowest / stream
	}
	if p.busy > 0 {
		m["engine.run_share"] = p.runTime.Seconds() / p.busy.Seconds()
	}
	if n := float64(p.passes); n > 0 {
		m["engine.alloc_mb_per_pass"] = float64(p.mem.allocBytes) / mb / n
		m["engine.allocs_per_pass"] = float64(p.mem.mallocs) / n
		m["engine.gc_cycles_per_pass"] = float64(p.mem.gcCycles) / n
		m["engine.gc_pause_ms_per_pass"] = float64(p.mem.gcPauseNs) / 1e6 / n
	}
	var plans, planMed []float64
	for _, c := range p.classes() {
		plans = append(plans, p.planUs[c]...)
		planMed = append(planMed, median(p.planUs[c]))
	}
	m["sql.plan_us"] = median(plans)
	if stream > 0 {
		m["sql.plan_share"] = sum(planMed) / 1e3 / stream
	}
}

// ratioGeomean is the geomean over classes of a's median over b's.
func ratioGeomean(a, b *phase) float64 {
	var r []float64
	for _, c := range a.classes() {
		if d := median(b.lat[c]); d > 0 {
			r = append(r, median(a.lat[c])/d)
		}
	}
	return geomean(r)
}

// timeStatements calls fn on every text `repeats` times and returns the
// median time of a call in microseconds.
func timeStatements(texts []string, repeats int, fn func(text string) error) (float64, error) {
	var samples []float64
	for _, text := range texts {
		for i := 0; i < repeats; i++ {
			t := time.Now()
			if err := fn(text); err != nil {
				return 0, err
			}
			samples = append(samples, us(time.Since(t)))
		}
	}
	return median(samples), nil
}

// frontendRepeats is how often each statement is parsed or distributed
// for its timing.
const frontendRepeats = 20

// inOrder returns the statement texts in query order.
func inOrder(texts map[int]string) []string {
	out := make([]string, 0, len(texts))
	for _, q := range sortedKeys(texts) {
		out = append(out, texts[q])
	}
	return out
}

// frontendMetrics times the SQL front end alone on every statement:
// parsing, and the allocations of one sql.Plan call.
func frontendMetrics(m metrics, db *database, texts map[int]string) (err error) {
	if m["sql.parse_us"], err = timeStatements(inOrder(texts), frontendRepeats, parseSQL); err != nil {
		return err
	}
	var allocs []float64
	var before, after runtime.MemStats
	for _, text := range inOrder(texts) {
		runtime.ReadMemStats(&before)
		if _, err := planSQL(db, text); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	m["sql.plan_allocs"] = median(allocs)
	return nil
}

// singleNodeLayers fills in what power and spill share: the operator rows
// and work counts of the traced passes, the untraced phase per query, the
// model's fit, the cost of tracing, set-up and the SQL front end.
func (b *base) singleNodeLayers(m metrics, acc *traceAcc, untraced, traced *phase, db *database, texts map[int]string) error {
	acc.operatorMetrics(m, traced.passes)
	acc.workMetrics(m)
	engineMetrics(m, untraced)
	modelFit(m, untraced, acc.simMs())
	if u := untraced.streamMs(); u > 0 {
		m["obs.trace_overhead_pct"] = (traced.streamMs()/u - 1) * 100
	}
	b.setupMetrics(m, db)
	return frontendMetrics(m, db, texts)
}

// setupMetrics reports where set-up time and memory went.
func (b *base) setupMetrics(m metrics, db *database) {
	m["tpch.generate_ms"] = b.genMs
	m["tpch.register_ms"] = b.regMs
	m["tpch.dataset_mb"] = float64(datasetBytes(b.ds)) / mb
	resident := float64(residentBytes(db)) / mb
	m["colstore.resident_mb"] = resident
	if resident > 0 {
		m["colstore.rss_over_resident"] = peakRSSMB() / resident
	}
}
