package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"time"
)

// serveLoad is the dashboard tenant: a closed loop of one client per CPU
// (two at most), each its own equal-weight tenant, posting parameterised
// statements to the serving tier's HTTP handler in-process. Variants are
// drawn Zipf(1.1), so about half the requests are answered from the
// 32-entry result cache — the working set (about 110 fingerprints) is
// larger than the cache on purpose. Hits never reach the engine: sql.Plan,
// plan.Fingerprint, the cache and JSON rendering are all they cost. Misses
// show pool sharing and queueing behind Q1.
type serveLoad struct {
	base
	sv      *served
	reg     *registry
	tenants []string
	texts   map[request]string
	bodies  map[request][][]byte // POST body by client
	want    map[string]answer    // by statement text, from the serial baseline
	tables  map[string]*table    // the same for RunPlan results (traced run only)
	next    []func() request     // per-client request source
}

// The parameterised queries POST /query can plan.
var serveQueries = []int{1, 3, 4, 5, 6, 14, 19}

const (
	serveVariants     = 16
	serveCacheEntries = 32
	serveZipfS        = 1.1
	serveWarmup       = 100 // untimed requests per client
)

// request names one statement of the mix.
type request struct{ query, variant int }

// requestSource returns a client's request sequence: the query uniform
// over the mix, the variant Zipf-distributed so a few dashboards are hot.
// Equal (seed, client) give equal sequences.
func requestSource(seed uint64, client int) func() request {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(client)))
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveVariants-1)
	return func() request {
		return request{query: serveQueries[rng.Intn(len(serveQueries))], variant: int(zipf.Uint64())}
	}
}

// answer is the part of a POST /query response that must repeat.
type answer struct {
	Rows    [][]string `json:"rows"`
	NumRows int        `json:"num_rows"`
}

type response struct {
	answer
	CacheHit bool `json:"cache_hit"`
}

func (w *serveLoad) setup() error {
	w.generate()
	clients := w.cfg.workers
	w.tenants = nil
	for c := 0; c < clients; c++ {
		w.tenants = append(w.tenants, fmt.Sprintf("client%d", c))
	}
	w.reg = newRegistry()
	t := time.Now()
	w.sv = newServed(w.ds, w.cfg.workers, serveCacheEntries, w.reg, w.tenants)
	w.regMs = ms(time.Since(t))

	w.texts = map[request]string{}
	w.bodies = map[request][][]byte{}
	for _, q := range serveQueries {
		// Draw parameters until the query has serveVariants distinct
		// texts: two draws can land on the same values, and then the
		// number of fingerprints — and with it the hit ratio — would
		// depend on the seed.
		distinct := map[string]bool{}
		for draw := uint64(0); len(distinct) < serveVariants; draw++ {
			if draw > 100*serveVariants {
				return fmt.Errorf("Q%d: fewer than %d distinct parameter variants", q, serveVariants)
			}
			text, err := sqlVariant(q, w.cfg.seed<<16|draw)
			if err != nil {
				return err
			}
			if distinct[text] {
				continue
			}
			r := request{q, len(distinct)}
			distinct[text] = true
			w.texts[r] = text
			for _, tenant := range w.tenants {
				body, err := json.Marshal(map[string]string{"tenant": tenant, "sql": text})
				if err != nil {
					return err
				}
				w.bodies[r] = append(w.bodies[r], body)
			}
		}
	}
	return nil
}

func (w *serveLoad) teardown() {
	if w.sv != nil {
		w.sv.close()
	}
	w.sv, w.ds = nil, nil
}

// post sends one request through the handler and returns the decoded
// response and the handler's latency. Decoding is not timed.
func post(h http.Handler, body []byte) (response, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	if err != nil {
		return response{}, 0, err
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	lat := time.Since(start)
	if rec.Code != http.StatusOK {
		return response{}, lat, fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return response{}, lat, err
	}
	return resp, lat, nil
}

// baseline answers every statement of the mix serially on a cache-less
// server over the same data: what concurrent, cached responses must equal.
func (w *serveLoad) baseline() error {
	plain := newServed(w.ds, w.cfg.workers, 0, newRegistry(), nil)
	defer plain.close()
	w.want = map[string]answer{}
	w.tables = map[string]*table{}
	for r, text := range w.texts {
		resp, _, err := post(plain.handler, w.bodies[r][0])
		if err != nil {
			return fmt.Errorf("baseline Q%d variant %d: %w", r.query, r.variant, err)
		}
		w.want[text] = resp.answer
		if w.cfg.trace {
			node, err := planServed(plain.db, text)
			if err != nil {
				return err
			}
			res, err := plain.runPlan("", node)
			if err != nil {
				return err
			}
			w.tables[text] = res.table
		}
	}
	return nil
}

func hitOrMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// closedLoop runs every client until b is spent (counted in requests per
// client), each sending its next request when the previous one returned.
// one performs and checks a request and returns its class and latency.
func (w *serveLoad) closedLoop(b budget, one func(client int, r request, p *phase) error) *phase {
	parts := make([]*phase, len(w.tenants))
	begin := time.Now()
	var wg sync.WaitGroup
	for c := range w.tenants {
		parts[c] = newPhase()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := parts[c]
			for ; !b.done(p.ops, time.Since(begin)); p.ops++ {
				r := w.next[c]()
				err := one(c, r, p)
				p.rss = append(p.rss, rssSample{time.Since(begin), currentRSSMB()})
				if err != nil {
					w.tally.fail("client %d Q%d variant %d: %v", c, r.query, r.variant, err)
					continue
				}
				w.tally.ok()
				p.good++
			}
		}(c)
	}
	wg.Wait()
	all := newPhase()
	all.passes = 1
	for _, p := range parts {
		all.ops += p.ops
		all.good += p.good
		// Clients run side by side: the phase lasted as long as the
		// average client was busy.
		all.busy += p.busy / time.Duration(len(parts))
		all.rss = append(all.rss, p.rss...)
		for c, xs := range p.lat {
			all.lat[c] = append(all.lat[c], xs...)
		}
		for c, xs := range p.planUs {
			all.planUs[c] = append(all.planUs[c], xs...)
		}
	}
	return all
}

// viaHandler is one POST /query, checked against the serial baseline.
func (w *serveLoad) viaHandler(client int, r request, p *phase) error {
	resp, lat, err := post(w.sv.handler, w.bodies[r][client])
	if err != nil {
		return err
	}
	if want := w.want[w.texts[r]]; resp.NumRows != want.NumRows || !reflect.DeepEqual(resp.Rows, want.Rows) {
		return fmt.Errorf("response differs from the serial baseline")
	}
	class := className(r.query) + "." + hitOrMiss(resp.CacheHit)
	p.lat[class] = append(p.lat[class], ms(lat))
	p.busy += lat
	return nil
}

func (w *serveLoad) measure() (*phase, error) {
	if err := w.baseline(); err != nil {
		return nil, err
	}
	w.next = nil
	for c := range w.tenants {
		w.next = append(w.next, requestSource(w.cfg.seed, c))
	}
	w.closedLoop(budget{min: serveWarmup, max: serveWarmup}, w.viaHandler)
	return w.closedLoop(w.cfg.measuredReqs, w.viaHandler), nil
}

func (w *serveLoad) describe(p *phase) string {
	lo, hi := p.sampleRange()
	return fmt.Sprintf("%d clients, %d requests, %d..%d samples per class over %d classes",
		len(w.tenants), p.ops, lo, hi, len(p.lat))
}

// splitSamples is the traced run's requests taken apart call by call.
type splitSamples struct {
	mu                                           sync.Mutex
	fingerprintUs, hitUs, missMs, missOverheadMs []float64
}

// viaCalls is the same request issued as the three calls the handler
// makes, each timed and recorded as a span of its own.
func (w *serveLoad) viaCalls(s *splitSamples) func(client int, r request, p *phase) error {
	return func(client int, r request, p *phase) error {
		text := w.texts[r]
		t0 := time.Now()
		node, err := planServed(w.sv.db, text)
		t1 := time.Now()
		if err != nil {
			return err
		}
		fingerprint(node)
		t2 := time.Now()
		res, err := w.sv.runPlan(w.tenants[client], node)
		t3 := time.Now()
		if err != nil {
			return err
		}
		if same, why := identical(res.table, w.tables[text]); !same {
			return fmt.Errorf("result differs from the serial baseline: %s", why)
		}
		class := className(r.query) + "." + hitOrMiss(res.hit)
		p.lat[class] = append(p.lat[class], ms(t3.Sub(t0)))
		p.planUs[class] = append(p.planUs[class], us(t1.Sub(t0)))
		p.busy += t3.Sub(t0)

		s.mu.Lock()
		s.fingerprintUs = append(s.fingerprintUs, us(t2.Sub(t1)))
		if res.hit {
			s.hitUs = append(s.hitUs, us(t3.Sub(t2)))
		} else {
			s.missMs = append(s.missMs, ms(t3.Sub(t2)))
			// Admission wait, fingerprint and cache put: what RunPlan
			// spends on a miss outside the engine.
			s.missOverheadMs = append(s.missOverheadMs, ms(t3.Sub(t2)-res.execTime))
		}
		s.mu.Unlock()

		op := w.rec.newOp()
		root := w.rec.add(op, 0, "op "+class, t0, t3, nil)
		w.rec.add(op, root, "sql.plan", t0, t1, nil)
		w.rec.add(op, root, "plan.fingerprint", t1, t2, nil)
		w.rec.add(op, root, "serve.run_plan", t2, t3, nil)
		return nil
	}
}

func (w *serveLoad) layers(untraced *phase, m metrics) error {
	var hits, misses []float64
	for class, xs := range untraced.lat {
		if strings.HasSuffix(class, ".hit") {
			hits = append(hits, xs...)
		} else {
			misses = append(misses, xs...)
		}
	}
	m["serve.hit_p50_ms"] = median(hits)
	m["serve.miss_p50_ms"] = median(misses)
	m["serve.miss_p95_ms"], _ = percentile(misses, 95)
	if n := len(hits) + len(misses); n > 0 {
		m["serve.cache_hit_ratio"] = float64(len(hits)) / float64(n)
	}

	var split splitSamples
	calls := w.closedLoop(w.cfg.extraReqs, w.viaCalls(&split))
	var plans []float64
	for _, xs := range calls.planUs {
		plans = append(plans, xs...)
	}
	m["serve.sql_plan_us_p50"] = median(plans)
	m["sql.plan_us"] = median(plans)
	m["plan.fingerprint_us"] = median(split.fingerprintUs)
	m["serve.runplan_hit_us_p50"] = median(split.hitUs)
	m["serve.runplan_miss_ms_p50"] = median(split.missMs)
	m["serve.miss_overhead_ms_p50"] = median(split.missOverheadMs)
	// JSON decode and render: what the handler adds to its three calls.
	m["serve.http_overhead_us_p50"] = m["serve.hit_p50_ms"]*1e3 - m["serve.sql_plan_us_p50"] - m["serve.runplan_hit_us_p50"]

	// Read after both phases: the registry counts since the server started.
	m["serve.admitted"] = counterValue(w.reg, seriesAdmitted)
	m["serve.rejected"] = counterValue(w.reg, seriesRejected)
	for _, tenant := range w.tenants {
		m["serve.requests"] += tenantCounterValue(w.reg, seriesQueries, tenant)
		m["serve.failed"] += tenantCounterValue(w.reg, seriesErrors, tenant)
	}

	texts := make([]string, 0, len(w.texts))
	for _, text := range w.texts {
		texts = append(texts, text)
	}
	var err error
	if m["sql.parse_us"], err = timeStatements(texts, 1, parseSQL); err != nil {
		return err
	}
	w.setupMetrics(m, w.sv.db)
	return nil
}
