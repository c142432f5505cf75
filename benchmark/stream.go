package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tally counts every checked operation of a run. An error or a failed
// result check is a failed operation; one is enough to fail the run.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string // the first few failures, for the report
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// budget bounds one phase: whole passes until d has elapsed, but at
// least min and (when max > 0) at most max. Medians over per-operation
// latencies do not depend on the pass count, and counts are reported per
// pass, so phases of different length stay comparable.
type budget struct {
	d        time.Duration
	min, max int
}

func (b budget) done(n int, elapsed time.Duration) bool {
	if b.max > 0 && n >= b.max {
		return true
	}
	return n >= b.min && elapsed >= b.d
}

// memUse is runtime.MemStats deltas summed over a phase's passes.
type memUse struct {
	allocBytes, mallocs, gcCycles, gcPauseNs uint64
}

func (m *memUse) add(before, after *runtime.MemStats) {
	m.allocBytes += after.TotalAlloc - before.TotalAlloc
	m.mallocs += after.Mallocs - before.Mallocs
	m.gcCycles += uint64(after.NumGC - before.NumGC)
	m.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// phase is what one timed stretch of a workload produced. A class is the
// kind of operation a latency belongs to: a query ("q05"), and on serve
// a query and its cache outcome ("q05.hit").
type phase struct {
	lat     map[string][]float64 // operation latency by class, ms
	planUs  map[string][]float64 // sql.Plan time by class, us
	passes  int
	ops     int           // operations attempted
	good    int           // operations that passed their check
	busy    time.Duration // summed operation latency: checks and inter-pass GC excluded
	runTime time.Duration // part of busy spent executing (not planning)
	mem     memUse
	rss     []rssSample // resident set after each operation
}

// rssSample is the resident set at one moment of a phase.
type rssSample struct {
	at time.Duration
	mb float64
}

// rssWindows is how many equal stretches a phase is cut into for
// peakRSSMB.
const rssWindows = 10

// peakRSSMB is the typical peak of the resident set: the phase is cut
// into rssWindows stretches, each contributes the largest sample taken in
// it, and the median of those is reported. The process-wide high-water
// mark (VmHWM) is one extreme value — it depends on where a GC cycle
// happens to fall in the heaviest query, and moved by 10 % between pass
// orders — so it is kept as a per-layer number only. The Go runtime hands
// memory back slowly, so a sample taken right after an operation still
// shows what the operation needed.
func (p *phase) peakRSSMB() float64 {
	if len(p.rss) == 0 {
		return 0
	}
	var end time.Duration
	for _, s := range p.rss {
		if s.at > end {
			end = s.at
		}
	}
	peaks := make([]float64, rssWindows)
	for _, s := range p.rss {
		w := rssWindows - 1
		if s.at < end {
			w = int(int64(s.at) * rssWindows / int64(end))
		}
		if s.mb > peaks[w] {
			peaks[w] = s.mb
		}
	}
	var seen []float64
	for _, v := range peaks {
		if v > 0 {
			seen = append(seen, v)
		}
	}
	return median(seen)
}

func newPhase() *phase {
	return &phase{lat: map[string][]float64{}, planUs: map[string][]float64{}}
}

// classes returns the class names in order.
func (p *phase) classes() []string {
	names := make([]string, 0, len(p.lat))
	for c := range p.lat {
		names = append(names, c)
	}
	sort.Strings(names)
	return names
}

// medians is the per-class median latency, in class order.
func (p *phase) medians() []float64 {
	var m []float64
	for _, c := range p.classes() {
		m = append(m, median(p.lat[c]))
	}
	return m
}

// streamMs is the time to run every class once: the sum of class medians.
func (p *phase) streamMs() float64 { return sum(p.medians()) }

// sampleRange is the smallest and the largest per-class sample count.
func (p *phase) sampleRange() (lo, hi int) {
	lo = -1
	for _, xs := range p.lat {
		if lo < 0 || len(xs) < lo {
			lo = len(xs)
		}
		if len(xs) > hi {
			hi = len(xs)
		}
	}
	return max(lo, 0), hi
}

// opOut is one finished operation of a single-stream workload.
type opOut struct {
	table             *table
	counters          counters    // single-node runs
	root              *opSpan     // traced single-node runs
	dist              *clusterRun // cluster runs
	start, split, end time.Time   // split: planning done, execution starts
}

// runner performs one operation — plan and run one statement.
type runner func(q int) (opOut, error)

// sqlRunner plans q's text against db and runs it: what `wimpi -sql`
// users pay per statement.
func sqlRunner(db *database, texts map[int]string, workers int, traced bool) runner {
	return func(q int) (opOut, error) {
		o := opOut{start: time.Now()}
		node, err := planSQL(db, texts[q])
		o.split = time.Now()
		if err != nil {
			return o, err
		}
		var res runResult
		if traced {
			res, err = runTraced(db, node)
		} else {
			res, err = runQuery(db, node, workers)
		}
		o.end = time.Now()
		o.table, o.counters, o.root = res.table, res.counters, res.root
		return o, err
	}
}

func className(q int) string { return fmt.Sprintf("q%02d", q) }

// stream drives single-stream workloads: passes over a fixed statement
// set in a seeded order, every result checked against want.
type stream struct {
	queries []int
	want    map[int]*table
	rng     *rand.Rand
	tally   *tally
	// afterPass, when set, runs between passes and reports failures.
	afterPass func()
}

func newStream(queries []int, seed uint64, t *tally) *stream {
	return &stream{
		queries: queries,
		want:    map[int]*table{},
		rng:     rand.New(rand.NewSource(int64(seed))),
		tally:   t,
	}
}

// learn runs every statement once through r and keeps the results as the
// expected answers.
func (s *stream) learn(r runner) error {
	for _, q := range s.queries {
		o, err := r(q)
		if err != nil {
			return fmt.Errorf("reference Q%d: %w", q, err)
		}
		s.want[q] = o.table
	}
	return nil
}

// run executes passes until b is spent. each, when non-nil, sees every
// checked operation (traced phases fold spans there).
func (s *stream) run(b budget, r runner, each func(pass, q int, o opOut)) *phase {
	p := newPhase()
	order := append([]int(nil), s.queries...)
	var before, after runtime.MemStats
	begin := time.Now()
	for ; !b.done(p.passes, time.Since(begin)); p.passes++ {
		s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		// Every pass starts from the same heap; GC inside a pass counts.
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, q := range order {
			o, err := r(q)
			p.ops++
			p.rss = append(p.rss, rssSample{time.Since(begin), currentRSSMB()})
			if err == nil {
				if same, why := identical(o.table, s.want[q]); !same {
					err = fmt.Errorf("result differs from reference: %s", why)
				}
			}
			if err != nil {
				s.tally.fail("Q%d: %v", q, err)
				continue
			}
			s.tally.ok()
			p.good++
			c := className(q)
			p.lat[c] = append(p.lat[c], ms(o.end.Sub(o.start)))
			p.planUs[c] = append(p.planUs[c], us(o.split.Sub(o.start)))
			p.busy += o.end.Sub(o.start)
			p.runTime += o.end.Sub(o.split)
			if each != nil {
				each(p.passes, q, o)
			}
		}
		runtime.ReadMemStats(&after)
		p.mem.add(&before, &after)
		if s.afterPass != nil {
			s.afterPass()
		}
	}
	return p
}

// endToEndMetrics computes the five end-to-end metrics from the measured
// phase and the set-up times.
func endToEndMetrics(p *phase, setups []float64) metrics {
	med := p.medians()
	return metrics{
		"setup_s":          median(setups),
		"query_geomean_ms": geomean(med),
		"stream_ms":        sum(med),
		"throughput_qps":   float64(p.good) / p.busy.Seconds(),
		"peak_rss_mb":      p.peakRSSMB(),
	}
}
