// Package obs is the engine's zero-dependency observability layer:
// operator spans (per-query trace trees carrying wall time, row counts,
// and exec.Counters deltas) and a lock-cheap metrics registry with a
// Prometheus-text export.
//
// The paper's central claims attribute each query's time to a specific
// bottleneck (Q1 memory-bound, Q11/Q16 CPU-bound); spans make that
// attribution inspectable per operator instead of per query, and the
// registry exposes the cluster runtime's health (RPC latencies, retries,
// re-dispatches, injected faults) without pulling in any external
// dependency.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use; updates are a single atomic add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depths, sizes).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed cumulative buckets. The
// hot path is one binary search plus two atomic adds; bucket bounds are
// immutable after construction.
type Histogram struct {
	bounds  []float64      // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

// DefaultLatencyBuckets covers 100µs .. ~100s in powers of ~4, a useful
// range for both local RPCs and thrashing wimpy nodes.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144,
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry is a named collection of metrics. Instrument creation takes a
// mutex (callers cache the returned instrument); updates are lock-free.
type Registry struct {
	mu     sync.Mutex
	names  []string // registration order is irrelevant; export sorts
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Default is the process-wide registry used by the engine, the cluster
// runtime, and the CLIs' -metrics-out dumps.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use. A name
// registered as a different metric kind panics: metric names are a
// global contract.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	r.mustBeFresh(name)
	c := &Counter{}
	r.counts[name] = c
	r.names = append(r.names, name)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.mustBeFresh(name)
	g := &Gauge{}
	r.gauges[name] = g
	r.names = append(r.names, name)
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.mustBeFresh(name)
	h := newHistogram(bounds)
	r.hists[name] = h
	r.names = append(r.names, name)
	return h
}

// Labeled returns a decorated metric name carrying one label pair —
// `name{label="value"}` — for per-tenant (or otherwise partitioned)
// series. The export layer splits the decoration back out, so the
// Prometheus text output stays well-formed: the TYPE line uses the base
// name, and histogram bucket lines merge the label with le. Quotes and
// backslashes in the value are escaped.
func Labeled(name, label, value string) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(value)
	return fmt.Sprintf(`%s{%s="%s"}`, name, label, esc)
}

// splitLabeled separates a Labeled-decorated name into its base name and
// the `label="value"` body; plain names return labels == "".
func splitLabeled(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

func (r *Registry) mustBeFresh(name string) {
	_, c := r.counts[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	if c || g || h {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, sorted by name so dumps are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)
	var b strings.Builder
	typedBases := map[string]bool{}
	for _, name := range names {
		r.mu.Lock()
		c, isC := r.counts[name]
		g, isG := r.gauges[name]
		h, isH := r.hists[name]
		r.mu.Unlock()
		base, labels := splitLabeled(name)
		series := base
		if labels != "" {
			series = base + "{" + labels + "}"
		}
		typed := !typedBases[base]
		typedBases[base] = true
		switch {
		case isC:
			if typed {
				fmt.Fprintf(&b, "# TYPE %s counter\n", base)
			}
			fmt.Fprintf(&b, "%s %d\n", series, c.Value())
		case isG:
			if typed {
				fmt.Fprintf(&b, "# TYPE %s gauge\n", base)
			}
			fmt.Fprintf(&b, "%s %d\n", series, g.Value())
		case isH:
			if typed {
				fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
			}
			bucketSep := "le="
			if labels != "" {
				bucketSep = labels + ",le="
			}
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{%s%q} %d\n", base, bucketSep, formatBound(bound), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket{%s\"+Inf\"} %d\n", base, bucketSep, cum)
			fmt.Fprintf(&b, "%s_sum%s %g\n", base, labelSuffix(labels), h.Sum())
			fmt.Fprintf(&b, "%s_count%s %d\n", base, labelSuffix(labels), h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatBound(v float64) string { return fmt.Sprintf("%g", v) }

func labelSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
