package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// callSpan is one call the benchmark made into a layer of the program.
// Spans of one operation share Op; Parent is the ID of the span that
// caused this one, 0 for the operation itself.
type callSpan struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Op      int                `json:"op"`
	Name    string             `json:"name"`
	StartUs int64              `json:"start_us"`
	EndUs   int64              `json:"end_us"`
	SelfMs  map[string]float64 `json:"self_ms,omitempty"` // folded operator self-times under this call
}

// recorder keeps the traced run's spans in memory until the run ends. A
// nil recorder records nothing, which is how untraced phases run.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int
	spans []callSpan
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp returns a fresh operation id.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// add records a finished call and returns its span ID.
func (r *recorder) add(op, parent int, name string, start, end time.Time, selfMs map[string]float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, callSpan{
		ID: id, Parent: parent, Op: op, Name: name,
		StartUs: start.Sub(r.t0).Microseconds(), EndUs: end.Sub(r.t0).Microseconds(),
		SelfMs: selfMs,
	})
	return id
}

// write dumps the spans to dir/trace_<workload>.json.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Spans    []callSpan `json:"spans"`
	}{workload, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}

// rowOf maps the program's operator kinds onto the benchmark's rows.
// Selection and probes get rows of their own because that is where
// Sirin & Ailamaki find OLAP time going; a kind not listed lands in
// "other", so a new operator shows up there instead of vanishing.
var rowOf = map[string]string{
	"scan": "scan", "select": "scan", "project": "scan",
	"gather":          "gather",
	"join-build":      "join_build",
	"join-probe":      "join_probe",
	"fused-probe":     "join_probe",
	"join-partition":  "join_partition",
	"group-by":        "group",
	"group-partition": "group_partition",
	"sort":            "sort",
	"fused-pipeline":  "fused",
	"spill-partition": "spill_partition",
	"spill-probe":     "spill_probe",
}

// folded is the per-row sum of operator self-times and self-counters over
// any number of span trees.
type folded struct {
	selfMs map[string]float64
	work   map[string]counters
	spans  int
}

func newFolded() *folded {
	return &folded{selfMs: map[string]float64{}, work: map[string]counters{}}
}

// fold adds the tree under root. Self-times of a tree sum to the root's
// wall (the program clamps the rare negative remainder to 0).
func (f *folded) fold(root *opSpan) {
	walkSpans(root, func(op string, self time.Duration, work counters) {
		row, ok := rowOf[op]
		if !ok {
			row = "other"
		}
		f.selfMs[row] += ms(self)
		w := f.work[row]
		addWork(&w, work)
		f.work[row] = w
		f.spans++
	})
}

// merge adds another fold's rows.
func (f *folded) merge(o *folded) {
	for row, v := range o.selfMs {
		f.selfMs[row] += v
		w := f.work[row]
		addWork(&w, o.work[row])
		f.work[row] = w
	}
	f.spans += o.spans
}

// total is the sum of all rows.
func (f *folded) total() float64 {
	t := 0.0
	for _, v := range f.selfMs {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
